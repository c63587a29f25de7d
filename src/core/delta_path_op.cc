#include "core/delta_path_op.h"

#include <algorithm>

namespace sgq {

void DeltaPathOp::ExtendTrees(const Sgt& tuple) {
  std::vector<AttachWork> work;
  for (const auto& [s, q] : dfa().TransitionsOnLabel(tuple.label)) {
    if (s == dfa().start() && OwnsRoot(tuple.src)) EnsureTree(tuple.src);
    const NodeKey parent_key{tuple.src, s};
    for (VertexId root : TreesContaining(parent_key)) {
      auto tree_it = trees_.find(root);
      if (tree_it == trees_.end()) continue;
      auto node_it = tree_it->second.nodes.find(parent_key);
      if (node_it == tree_it->second.nodes.end()) continue;
      const Interval iv = node_it->second.iv.Intersect(tuple.validity);
      if (iv.Empty()) continue;
      work.push_back(AttachWork{root, parent_key, NodeKey{tuple.trg, q},
                                tuple.label, iv});
    }
  }
  DrainWorklist(std::move(work));
}

void DeltaPathOp::DrainWorklist(std::vector<AttachWork> work) {
  while (!work.empty()) {
    AttachWork w = std::move(work.back());
    work.pop_back();
    if (w.child == w.parent) continue;
    auto tree_it = trees_.find(w.root);
    if (tree_it == trees_.end()) continue;
    SpanningTree& tree = tree_it->second;

    auto node_it = tree.nodes.find(w.child);
    if (node_it != tree.nodes.end()) {
      // Negative-tuple behaviour (Example 10): an existing, still valid
      // node is left untouched — even if the new derivation would expire
      // later. Stale (expired) nodes are replaced, mirroring the explicit
      // deletion that [57] would have processed by now.
      if (node_it->second.is_root ||
          node_it->second.iv.exp > w.iv.ts) {
        continue;
      }
    }
    TreeNode node;
    node.iv = w.iv;
    node.parent = w.parent;
    node.via = w.via;
    SetNode(tree, w.child, std::move(node));
    if (dfa().IsAccepting(w.child.second)) {
      EmitResult(tree, w.child, w.iv);
    }
    for (const auto& [label, q] : OutTransitions(w.child.second)) {
      for (const StoredEdge& e : window_->OutEdges(w.child.first, label)) {
        const Interval next_iv = w.iv.Intersect(e.validity);
        if (next_iv.Empty()) continue;
        work.push_back(
            AttachWork{w.root, w.child, NodeKey{e.trg, q}, label, next_iv});
      }
    }
  }
}

void DeltaPathOp::ReadSharedWindows() {
  PathOpBase::ReadSharedWindows();
  window_->EnableInIndex();
}

void DeltaPathOp::OnTimeAdvance(Timestamp now) {
  // Window memory is reclaimed calendar-cheaply regardless of whether any
  // tree node expired (a shard's shared window at the slide boundaries,
  // by the driver).
  if (!window_reader_) window_->PurgeExpired(now);
  if (!node_expiry_.AnyDue(now)) return;

  // Drain the node calendar, verifying each hint against the live node
  // (hints can be stale: re-derived nodes, extended intervals).
  expired_scratch_.clear();
  node_expiry_.DrainDue(now, [&](Timestamp /*exp*/,
                                const std::pair<VertexId, NodeKey>& hint) {
    auto tree_it = trees_.find(hint.first);
    if (tree_it == trees_.end()) return;
    auto node_it = tree_it->second.nodes.find(hint.second);
    if (node_it == tree_it->second.nodes.end()) return;
    const TreeNode& node = node_it->second;
    if (node.is_root) return;
    if (node.iv.exp <= now) {
      expired_scratch_.push_back(hint);
    } else if (node_expiry_.NeedsReAdd(node.iv.exp, now)) {
      node_expiry_.Add(node.iv.exp, hint);
    }
  });
  if (expired_scratch_.empty()) return;

  // Canonical (root, key) order, duplicates removed (a node may carry
  // several due hints after interval changes).
  std::sort(expired_scratch_.begin(), expired_scratch_.end());
  expired_scratch_.erase(
      std::unique(expired_scratch_.begin(), expired_scratch_.end()),
      expired_scratch_.end());

  // DRed over the spanning forest: every expired derivation is deleted and
  // the operator re-derives alternatives from the snapshot graph. Expired
  // sets are closed under descendants (a child's interval is contained in
  // its parent's at attach time and is never widened), so detaching them
  // together is sound.
  std::vector<NodeKey> expired;
  for (std::size_t i = 0; i < expired_scratch_.size();) {
    const VertexId root = expired_scratch_[i].first;
    expired.clear();
    for (; i < expired_scratch_.size() && expired_scratch_[i].first == root;
         ++i) {
      expired.push_back(expired_scratch_[i].second);
    }
    auto tree_it = trees_.find(root);
    if (tree_it == trees_.end()) continue;
    ++rederivation_rounds_;
    RederiveSubtree(tree_it->second, expired, now, /*emit_negatives=*/false);
  }
  expired_scratch_.clear();
}

void DeltaPathOp::Purge(Timestamp now) {
  OnTimeAdvance(now);
  PathOpBase::Purge(now);
}

}  // namespace sgq
