// Shared machinery of the PATH physical operators (§6.2.3-§6.2.5):
// the Δ-PATH spanning forest (Defs. 21-22), the inverted (vertex, state)
// index, witness-path recovery, result emission, and the Dijkstra-style
// delete/re-derive procedure used for explicit deletions (and, by the
// negative-tuple variant, for window expirations).
//
// State layout (DESIGN.md §"State layout"): forests and the inverted
// index live on flat hash maps; inverted-index root lists are
// small-size-inlined runs backed by the operator's slab pool. Node expiry
// is indexed by a slide-aligned calendar — every finite-expiry tree node
// registers a (root, key) hint at its expiry bucket, so Purge and the
// Δ-tree's expiry re-derivation touch only the expiring bucket instead of
// re-scanning the whole forest. Where hash iteration order would be
// observable in emissions (re-derivation, retract/re-assert), the drains
// are sorted, keeping output deterministic across runs and builds.

#ifndef SGQ_CORE_PATH_BASE_H_
#define SGQ_CORE_PATH_BASE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "core/physical.h"
#include "core/window_store.h"
#include "model/coalesce.h"
#include "regex/dfa.h"

namespace sgq {

/// \brief A node of a spanning tree: a (vertex, automaton state) pair.
using NodeKey = std::pair<VertexId, StateId>;

#if defined(__LP64__) || defined(_LP64)
static_assert(sizeof(NodeKey) == 8, "NodeKey: 32-bit vertex and state");
#endif

/// \brief Base of the S-PATH and Δ-tree PATH operators.
class PathOpBase : public PhysicalOp {
 public:
  PathOpBase(Dfa dfa, LabelId out_label);

  std::string Name() const override { return "PATH"; }
  std::size_t StateSize() const override;
  std::size_t StateBytes() const override;

  /// \brief Window write, then tree work: a deletion truncates the window
  /// and repairs the trees that used the edge; an insertion is stored and
  /// extends the trees (ExtendTrees). A reader of a shared partition does
  /// only the tree work: the driver wrote the batch (WriteWindows).
  void OnTuple(int port, const Sgt& tuple) final;

  /// \brief Sharded execution: every input tuple is broadcast to every
  /// shard — spanning trees are keyed by *root* vertex, but any edge can
  /// extend any tree, so each shard reads the full window adjacency (the
  /// one partition the operator's shards share) and owns the trees whose
  /// root hashes to it.
  RoutingKey InputRouting(int port) const override {
    (void)port;
    return RoutingKey::kBroadcast;
  }

  /// \brief A shard reads the partition its operator's shards share. Its
  /// deletion repair treats every deletion as one a sibling consumer
  /// truncated first, which is exact (DESIGN.md §2.3), so no truncation
  /// outcome passes from the driver to the shards.
  void ReadSharedWindows() override { window_reader_ = true; }

  /// \brief Inserts and DeleteAt truncations in batch order. Driven before
  /// the shards run the batch: an expansion must see the edges that came
  /// earlier in its batch, and a sharded wave holds one timestamp, so
  /// seeing the whole batch changes no snapshot (DESIGN.md §2.4). A
  /// truncation enables the reverse index the shards' repair probes.
  void WriteWindows(int port, const Sgt* tuples, std::size_t n) override;

  /// \brief Declares this instance shard `shard` of `num_shards`. With
  /// num_shards == 1 (the default) the operator owns every tree root —
  /// the unsharded behavior, untouched.
  void ConfigureShard(ShardId shard, std::size_t num_shards) {
    shard_ = shard;
    num_shards_ = num_shards == 0 ? 1 : num_shards;
  }

  /// \brief True when this shard owns the spanning tree rooted at `v`.
  /// Results for (root, v) pairs are emitted only by the owner, so each
  /// output value — including its retractions — stays on one shard.
  bool OwnsRoot(VertexId v) const {
    return num_shards_ == 1 || ShardOfVertex(v, num_shards_) == shard_;
  }

  /// \brief Probes and maintains window state through a partition of the
  /// runtime WindowStore instead of a private copy. Must be called before
  /// the first tuple; the caller keeps `store` alive. Safe to share with
  /// other PATH operators over the same input: inserts coalesce
  /// idempotently, deletions truncate idempotently, and repeated purges
  /// are cheap.
  void BindSharedWindow(WindowEdgeStore* store) { window_ = store; }

  bool shares_window() const { return window_ != &owned_window_; }

  /// \brief Aligns the node-expiry calendar (and the owned window's) to
  /// the engine slide.
  void ConfigureExpirySlide(Timestamp slide) override {
    node_expiry_.ConfigureSlide(slide);
    owned_window_.ConfigureExpirySlide(slide);
    out_coalescer_.ConfigureExpirySlide(slide);
  }

  /// \brief Frees window edges (a writer's), tree nodes and coalescer
  /// state that expired at or before `now`, drops trees reduced to their
  /// root, and shrinks the tables left under 1/8 full. Calendar-driven:
  /// cost is proportional to what actually expired, not to the forest
  /// size.
  void Purge(Timestamp now) override;

  /// \brief Due when the window partition (a writer's), the node calendar
  /// or the output coalescer has a due hint, or a tree may have shrunk to
  /// its root.
  bool PurgeDue(Timestamp now) const override {
    return (!window_reader_ && window_->AnyDue(now)) ||
           node_expiry_.AnyDue(now) || !empty_tree_candidates_.empty() ||
           out_coalescer_.AnyDue(now);
  }

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7):
  /// forest, inverted index, node-expiry calendar, output coalescer, and
  /// the owned window when not shared (shared partitions are checkpointed
  /// once by the WindowStore registry). Tree/key enumeration is sorted
  /// for deterministic bytes, but child links and inverted-index runs are
  /// serialized *verbatim* — they are maintained by swap-and-pop, so
  /// their order is history-dependent and observable (TreesContaining,
  /// CollectSubtree seeds); restoring them byte-for-byte keeps resumed
  /// emission order identical.
  void SerializeState(PayloadOut* out) const override;
  Status DeserializeState(ByteReader* in) override;

 protected:
  /// \brief Tree-node bookkeeping (Def. 21). The path from the root to a
  /// node is recovered by following parent pointers; `via` is the label of
  /// the edge that connects the parent to this node — its endpoints are
  /// the parent's and the node's vertices (ViaEdge). `children` is the
  /// inverse of `parent`, maintained by SetNode/RemoveNode/ReparentNode,
  /// so CollectSubtree is a BFS over the subtree instead of a scan of the
  /// whole tree.
  struct TreeNode {
    Interval iv;
    NodeKey parent{kInvalidVertex, 0};
    LabelId via = kInvalidLabel;
    bool is_root = false;
    SmallRun<NodeKey, 1> children;
  };
#if defined(__LP64__) || defined(_LP64)
  static_assert(sizeof(std::pair<NodeKey, TreeNode>) == 56,
                "PATH tree slot: key, interval, parent, label, children");
#endif

  /// \brief The edge from `node`'s parent to `node` (stored at `key`):
  /// (parent vertex, key vertex, via); a root has none (EdgeRef()).
  static EdgeRef ViaEdge(const NodeKey& key, const TreeNode& node) {
    return node.is_root ? EdgeRef()
                        : EdgeRef(node.parent.first, key.first, node.via);
  }

  /// \brief Spanning tree T_x (Def. 21), rooted at (x, s0).
  struct SpanningTree {
    VertexId root = kInvalidVertex;
    FlatMap<NodeKey, TreeNode, PairHash> nodes;
  };

  /// \brief Creates T_x with root (x, s0) if absent (S-PATH lines 7-8).
  SpanningTree& EnsureTree(VertexId x);

  /// \brief Writes/overwrites `child` in `tree`, maintains the inverted
  /// index from node keys to tree roots, and registers the node's expiry
  /// in the calendar.
  void SetNode(SpanningTree& tree, const NodeKey& child, TreeNode node);

  /// \brief Removes `key` from `tree` and the inverted index.
  void RemoveNode(SpanningTree& tree, const NodeKey& key);

  /// \brief Re-registers `key`'s expiry after an in-place interval update
  /// (S-PATH's Propagate extends node intervals without going through
  /// SetNode).
  void RegisterNodeExpiry(VertexId root, const NodeKey& key, Timestamp exp) {
    node_expiry_.Add(exp, {root, key});
  }

  /// \brief Moves `child`'s child-link from `old_parent` to `new_parent`
  /// (S-PATH's Propagate adopts a new parent in place).
  void ReparentNode(SpanningTree& tree, const NodeKey& child,
                    const NodeKey& old_parent, const NodeKey& new_parent) {
    if (old_parent == new_parent) return;
    RemoveChildLink(tree, old_parent, child);
    AddChildLink(tree, new_parent, child);
  }

  /// \brief Roots of the trees currently containing `key` (copy: callers
  /// mutate the index while iterating).
  std::vector<VertexId> TreesContaining(const NodeKey& key) const;

  /// \brief Witness path from the root of `tree` to `key`: the sequence of
  /// `via` edges along parent pointers (cost O(path length), §6.2.4).
  Payload RecoverPath(const SpanningTree& tree, const NodeKey& key) const;

  /// \brief Emits the result sgt (root, v, out_label, iv, witness path),
  /// suppressing snapshot-redundant repeats.
  void EmitResult(const SpanningTree& tree, const NodeKey& key, Interval iv);

  /// \brief Emits a negative result tuple for value (root -> v) at `t`,
  /// then re-asserts the pair if another accepting witness for v survives
  /// in the tree (sorted drain: emission order is key order, not hash
  /// order).
  void RetractAndReassert(SpanningTree& tree, VertexId v, Timestamp t);

  /// \brief All keys in the subtree rooted at `key` (inclusive), found by
  /// walking parent chains of every node. Sorted (canonical order).
  std::vector<NodeKey> CollectSubtree(const SpanningTree& tree,
                                      const NodeKey& key) const;

  /// \brief Delete/re-derive (§6.2.5): detaches `subtree` from `tree`,
  /// then reattaches every node for which an alternative valid path with
  /// maximal expiry exists (Dijkstra on expiry order); nodes without an
  /// alternative are removed. When `emit_negatives`, removed accepting
  /// nodes retract their (root, v) result at instant `now`; reattached
  /// accepting nodes re-emit with the interval of the alternative path.
  void RederiveSubtree(SpanningTree& tree, const std::vector<NodeKey>& subtree,
                       Timestamp now, bool emit_negatives);

  /// \brief Tree repair for the explicit deletion carried by the negative
  /// sgt `t`, after the window was truncated (`truncated`: this instance's
  /// DeleteAt found a live entry): re-derives every subtree hanging off a
  /// deleted tree edge (deleting a non-tree edge changes nothing).
  void RepairDeletion(const Sgt& t, bool truncated);

  /// \brief Extends the trees with the inserted edge `tuple`, already in
  /// the window (S-PATH's Expand/Propagate, the Δ-tree's attach-only
  /// insert). `tuple.validity` is non-empty.
  virtual void ExtendTrees(const Sgt& tuple) = 0;

  /// \brief Transitions (label, target) leaving automaton state `s`.
  const std::vector<std::pair<LabelId, StateId>>& OutTransitions(
      StateId s) const {
    return out_transitions_[s];
  }

  const Dfa& dfa() const { return dfa_; }
  LabelId out_label() const { return out_label_; }

  /// Window adjacency: points at the operator's own store, or at a shared
  /// WindowStore partition after BindSharedWindow(). Maintenance shared by
  /// several writers needs no coordination: inserts coalesce idempotently
  /// and repeated purges are cheap (calendar-driven).
  WindowEdgeStore* window_ = &owned_window_;
  /// Sharded execution: the window is a partition the driver writes
  /// (ReadSharedWindows); this instance only reads it.
  bool window_reader_ = false;
  FlatMap<VertexId, SpanningTree> trees_;

  /// Node-expiry calendar: (root, key) hints at the node's expiry bucket.
  /// The Δ-tree operator drains it to find the nodes to re-derive;
  /// Purge() drains it to reclaim memory.
  ExpiryCalendar<std::pair<VertexId, NodeKey>> node_expiry_;

 private:
  WindowEdgeStore owned_window_;
  Dfa dfa_;
  LabelId out_label_;
  ShardId shard_ = 0;
  std::size_t num_shards_ = 1;
  /// Inverted index (Def. 22): node key -> roots of trees containing it.
  /// Small inlined runs, deduplicated on insert and erased by
  /// swap-and-pop: root sets are small and the index is probed on every
  /// arriving sgt.
  FlatMap<NodeKey, SmallRun<VertexId, 2>, PairHash> inverted_;
  SlabPool inverted_pool_;  ///< overflow storage of inverted_ runs
  SlabPool children_pool_;  ///< overflow storage of child-link runs

  void AddChildLink(SpanningTree& tree, const NodeKey& parent,
                    const NodeKey& child);
  void RemoveChildLink(SpanningTree& tree, const NodeKey& parent,
                       const NodeKey& child);
  /// Per-state outgoing transitions, precomputed from the DFA.
  std::vector<std::vector<std::pair<LabelId, StateId>>> out_transitions_;
  /// Per-state *incoming* transitions (label, source state): used by
  /// delete/re-derive to seed candidates from the detached nodes' in-edges
  /// instead of scanning every surviving node's out-edges.
  std::vector<std::vector<std::pair<LabelId, StateId>>> in_transitions_;
  StreamingCoalescer out_coalescer_;
  /// Total nodes across trees_ (roots included): O(1) StateSize.
  std::size_t num_tree_nodes_ = 0;
  /// Roots whose tree shrank to (or was created with) just the root node;
  /// Purge verifies and drops them instead of scanning every tree.
  std::vector<VertexId> empty_tree_candidates_;
  /// Roots whose node table dropped under 1/8 full since the last Purge,
  /// which shrinks them (FlatMap::ShrinkToFit) — without scanning the
  /// forest. Transient like a drain's scratch: not checkpointed (a
  /// restore sizes every table afresh).
  std::vector<VertexId> shrink_roots_;
};

}  // namespace sgq

#endif  // SGQ_CORE_PATH_BASE_H_
