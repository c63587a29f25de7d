#include "core/spath_op.h"

#include "common/logging.h"

namespace sgq {

void SPathOp::ExtendTrees(const Sgt& tuple) {
  std::vector<AttachWork> work;
  for (const auto& [s, q] : dfa().TransitionsOnLabel(tuple.label)) {
    if (s == dfa().start() && OwnsRoot(tuple.src)) {
      // S-PATH lines 7-8: root a new spanning tree at the source vertex
      // (under sharding, only on the shard owning the root).
      EnsureTree(tuple.src);
    }
    const NodeKey parent_key{tuple.src, s};
    for (VertexId root : TreesContaining(parent_key)) {
      auto tree_it = trees_.find(root);
      if (tree_it == trees_.end()) continue;
      auto node_it = tree_it->second.nodes.find(parent_key);
      if (node_it == tree_it->second.nodes.end()) continue;
      const Interval iv = node_it->second.iv.Intersect(tuple.validity);
      if (iv.Empty()) continue;  // parent expired w.r.t. this edge: ignore
      work.push_back(AttachWork{root, parent_key, NodeKey{tuple.trg, q},
                                tuple.label, iv});
    }
  }
  DrainWorklist(std::move(work));
}

void SPathOp::DrainWorklist(std::vector<AttachWork> work) {
  while (!work.empty()) {
    AttachWork w = std::move(work.back());
    work.pop_back();
    if (w.child == w.parent) continue;  // self-loop in the same state
    auto tree_it = trees_.find(w.root);
    if (tree_it == trees_.end()) continue;
    SpanningTree& tree = tree_it->second;

    auto node_it = tree.nodes.find(w.child);
    Interval result_iv;
    if (node_it == tree.nodes.end() ||
        (!node_it->second.is_root &&
         node_it->second.iv.exp <= w.iv.ts)) {
      // Expand: the target is absent (or its previous derivation already
      // expired relative to the new one, so it is replaced wholesale).
      TreeNode node;
      node.iv = w.iv;
      node.parent = w.parent;
      node.via = w.via;
      SetNode(tree, w.child, std::move(node));
      result_iv = w.iv;
    } else if (!node_it->second.is_root &&
               node_it->second.iv.exp < w.iv.exp) {
      // Propagate: the new derivation expires later; adopt it (S-PATH
      // line 18). Old and new intervals overlap here (the old one has not
      // expired), so the span introduces no validity gap. The in-place
      // interval extension bypasses SetNode, so the expiry calendar is
      // told directly.
      TreeNode& node = node_it->second;
      const NodeKey old_parent = node.parent;
      node.parent = w.parent;
      node.via = w.via;
      node.iv = node.iv.Span(w.iv);
      result_iv = node.iv;
      RegisterNodeExpiry(w.root, w.child, node.iv.exp);
      ReparentNode(tree, w.child, old_parent, w.parent);
    } else {
      // Existing derivation is at least as durable (or target is the
      // root): nothing to do.
      continue;
    }

    if (dfa().IsAccepting(w.child.second)) {
      EmitResult(tree, w.child, result_iv);
    }

    // Continue the traversal of the snapshot graph from the new/updated
    // node (Expand/Propagate lines 8-12).
    for (const auto& [label, q] : OutTransitions(w.child.second)) {
      for (const StoredEdge& e : window_->OutEdges(w.child.first, label)) {
        const Interval next_iv = result_iv.Intersect(e.validity);
        if (next_iv.Empty()) continue;
        work.push_back(
            AttachWork{w.root, w.child, NodeKey{e.trg, q}, label, next_iv});
      }
    }
  }
}

}  // namespace sgq
