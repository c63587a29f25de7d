// Physical PATTERN operator (§6.2.2): a left-deep pipeline of symmetric
// (pipelined) hash joins over variable bindings.
//
// The subgraph pattern is a conjunctive query; input port i contributes the
// atom (src_var_i, trg_var_i). Level j of the pipeline joins the
// accumulated bindings over ports 0..j with port j+1 on their shared
// variables. Every hash-table entry carries its validity interval; joins
// intersect intervals (Def. 19), which makes window expiration automatic
// (the *direct approach*): an expired entry can never produce a non-empty
// intersection with a future tuple, so probes skip it and Purge() reclaims
// it. Explicit deletions use the negative-tuple approach (§6.2.5).
//
// Single-atom state lives in the runtime's WindowStore: each port >= 1
// whose input has a known output label keeps its edges in a
// WindowEdgeStore partition and the join probes that index (by source,
// by target via the reverse index, or by both) instead of a private hash
// table. The partitions are per-operator — deletion handling replays the
// join against pre-deletion state, so aliasing them across operators
// would make retraction order-dependent (see DESIGN.md) — and the shards
// of a sharded operator share them: the executor's driver thread writes
// them, the shards only probe. Ports without a single static label
// (label-preserving UNION inputs) and cross-product levels (no shared
// variables) fall back to the private table.
//
// State layout (DESIGN.md §"State layout"): join tables are flat hash
// maps keyed by small-inlined key vectors; bindings inline their variable
// values (no per-binding heap allocation at the typical arity), and each
// bucket keeps one binding inline in the map slot and its overflow in one
// exact-size heap block it owns, freed when the bucket grows, empties or
// dies — a bucket costs what its bindings cost. Expired bindings are
// reclaimed through a slide-aligned expiry calendar holding one live hint
// per bucket, at (no later than) the bucket's earliest binding expiry —
// Purge() touches only buckets whose hint has come due, not the whole
// table.

#ifndef SGQ_CORE_PATTERN_OP_H_
#define SGQ_CORE_PATTERN_OP_H_

#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/arena.h"
#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "common/small_vec.h"
#include "core/physical.h"
#include "core/window_store.h"
#include "model/coalesce.h"

namespace sgq {

/// \brief Shared-runtime state configuration for one PATTERN input port.
struct PatternPortState {
  WindowEdgeStore* store = nullptr;  ///< partition for this port's edges
  LabelId label = kInvalidLabel;     ///< the port's (single) tuple label
};

/// \brief Streaming subgraph-pattern operator (Def. 19).
///
/// Sharded execution partitions the join by the *driving atom*: port-0
/// tuples hash to one shard (kEdgeValue), which then owns every
/// accumulated binding — and thus every derivation — growing from them;
/// ports >= 1 broadcast, so each shard sees all of the right-side
/// single-atom state its left bindings probe (one WindowStore partition
/// per store-backed port, shared by the shards and written by the driver;
/// a private table per shard otherwise). Each derivation therefore happens
/// on exactly one shard. Deletions need the two-phase cross-shard protocol
/// (DeletionCoordination): an output value retracted on one shard may
/// survive via a derivation owned by another.
class PatternOp : public PhysicalOp, public DeletionCoordination {
 public:
  /// \brief Builds the join pipeline from a logical PATTERN node. The join
  /// tree follows the order of the pattern's atoms (§6.2.2: "we use the
  /// ordering of predicates in PATTERN to construct the join tree").
  /// `port_state[p]`, when present with a store and label, moves port p's
  /// single-atom state into that WindowStore partition (p >= 1).
  explicit PatternOp(const LogicalOp& pattern,
                     std::vector<PatternPortState> port_state = {});

  void OnTuple(int port, const Sgt& tuple) override;
  void Purge(Timestamp now) override;
  /// \brief Due when the binding calendar, a store-backed partition or
  /// the output coalescer has a due hint.
  bool PurgeDue(Timestamp now) const override;
  std::string Name() const override { return "PATTERN"; }
  std::size_t StateSize() const override;
  std::size_t StateBytes() const override;

  void ConfigureExpirySlide(Timestamp slide) override {
    binding_expiry_.ConfigureSlide(slide);
    out_coalescer_.ConfigureExpirySlide(slide);
  }

  /// \brief Port 0 (the driving atom) hash-partitions by edge value;
  /// every other port broadcasts (right-side state every shard probes).
  RoutingKey InputRouting(int port) const override {
    return port == 0 ? RoutingKey::kEdgeValue : RoutingKey::kBroadcast;
  }

  /// \brief The shards share the store-backed ports' partitions.
  void ReadSharedWindows() override { window_reader_ = true; }
  /// \brief Store-backed ports only: inserts, and RemoveValue for
  /// deletions, of the tuples BindPort accepts. Driven after the shards
  /// ran the tuples: within a wave port p's store is read only by
  /// cascades from ports < p, which every shard runs first, so the shards
  /// read exactly the store a lone instance would. A deletion's
  /// RemoveValue runs between the coordinated deletion's two phases.
  void WriteWindows(int port, const Sgt* tuples, std::size_t n) override;

  /// \brief Multi-atom patterns derive one output value from several
  /// port-0 bindings, potentially on different shards; single-atom
  /// patterns are value-partitioned pass-throughs and need none.
  bool NeedsDeletionCoordination() const override { return num_ports_ > 1; }

  /// \brief For the same reason, a value-equivalent output can be emitted
  /// by several shards (each shard's out_coalescer_ is blind to its
  /// siblings); the exchange's merge-side coalescer restores
  /// single-instance emission volume. Single-atom patterns partition
  /// output by value and are already duplicate-free.
  bool CoalesceAtMerge() const override { return num_ports_ > 1; }

  /// \name DeletionCoordination (sharded two-phase deletions)
  /// @{
  std::vector<EdgeRef> RetractForDeletion(int port,
                                          const Sgt& tuple) override;
  void ReassertRetracted(const std::vector<EdgeRef>& retracted) override;
  /// @}

  /// \brief Number of ports whose state is WindowStore-backed
  /// (diagnostics).
  std::size_t num_store_backed_ports() const;

  /// \brief Hints pending in the binding-expiry calendar, stale ones
  /// included (diagnostics; one live hint per private bucket).
  std::size_t num_expiry_hints() const { return binding_expiry_.num_hints(); }

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7): every
  /// level's private left/right tables (keys sorted, each bucket's hinted
  /// expiry, bucket contents verbatim — scrubs and purges compact buckets
  /// order-preservingly, so binding order is round-trippable), entry
  /// counters, and the output coalescer. The calendar is not serialized:
  /// restore registers each bucket's one live hint, so stale hints never
  /// reach an image. Store-backed port state lives in WindowStore
  /// partitions checkpointed by the registry; the in-flight retraction
  /// scratch sets are provably empty at batch boundaries and are not
  /// serialized.
  void SerializeState(PayloadOut* out) const override;
  Status DeserializeState(ByteReader* in) override;

 private:
  /// A (partial) variable binding: one value per pattern variable, with
  /// kInvalidVertex marking unbound positions. Values are inline for the
  /// typical arity — no heap allocation per binding.
  struct Binding {
    SmallVec<VertexId, 6> vals;
    Interval iv;
  };

  /// Join keys hold the shared variables of a level: 1-3 values inline.
  using Key = SmallVec<VertexId, 3>;

#if defined(__LP64__) || defined(_LP64)
  static_assert(sizeof(Binding) == 48, "Binding: six ids inline + interval");
  static_assert(sizeof(Key) == 24, "Key: three ids inline");
#endif

  /// The bindings of one bucket: a single binding lives inline in the map
  /// slot; more hold one exact-size heap block.
  using BindingRun = PoolVec<Binding, 1>;
  /// Bucket of bindings sharing a join key. `hinted` is the expiry of the
  /// bucket's one live calendar hint (kMaxTimestamp: none). Invariant: a
  /// bucket holding a finite-expiry binding has a live hint at `hinted`,
  /// and `hinted` is no later than its earliest binding expiry.
  struct Bucket {
    BindingRun bindings;
    Timestamp hinted = kMaxTimestamp;
  };
  using Table = FlatMap<Key, Bucket, SmallVecHash>;

  /// Locator of one join-table bucket for the expiry calendar. A drained
  /// hint is live only when its expiry equals the bucket's `hinted`;
  /// otherwise (or when the bucket is gone) it is stale and skipped.
  struct BucketRef {
    int level;
    bool left;
    Key key;
  };

  /// How a store-backed right side is probed, derived from which of the
  /// port's variables appear in the level's join key.
  enum class ProbeKind {
    kOut,          ///< key binds the source: OutEdges(src)
    kOutFiltered,  ///< key binds both endpoints: OutEdges(src), filter trg
    kIn,           ///< key binds the target: InEdges(trg)
  };

  /// One symmetric hash join: `left` holds bindings over ports 0..j;
  /// the right side holds bindings of port j+1 — in the WindowStore
  /// partition `store` when set, else in the private `right` table.
  struct Level {
    std::vector<int> key_vars;  ///< shared variable indexes (sorted)
    Table left;
    Table right;
    std::size_t left_entries = 0;   ///< bindings in left (O(1) StateSize)
    std::size_t right_entries = 0;  ///< bindings in right
    WindowEdgeStore* store = nullptr;
    LabelId store_label = kInvalidLabel;
    ProbeKind probe = ProbeKind::kOut;
  };

  /// Converts a port tuple into a binding; returns false if an intra-atom
  /// constraint (src_var == trg_var) rejects the tuple.
  bool BindPort(int port, const Sgt& tuple, Binding* out) const;

  Key ExtractKey(const Level& level, const Binding& b) const;

  /// Calls `fn(binding)` for every right-side binding of `level_idx`
  /// matching `key`, probing the WindowStore partition or the private
  /// table as configured.
  template <typename Fn>
  void ForEachRightMatch(std::size_t level_idx, const Key& key,
                         Fn&& fn) const;

  /// Inserts `b` into the level's left or right table under `key`,
  /// coalescing with a value-equivalent entry whose interval overlaps or
  /// is adjacent; maintains the entry counters and the bucket's hint (a
  /// new one only when `b` expires before it; extensions need none).
  void InsertCoalesced(int level, bool left, const Key& key, Binding b);

  /// Merges two bindings (caller guarantees agreement on shared vars).
  static Binding Merge(const Binding& a, const Binding& b);

  /// Cascade/Project modes. kRetract replays the join for a deleted tuple
  /// (no inserts) and emits negative outputs; kReassert re-derives the
  /// retracted output values from the surviving state and re-emits their
  /// positives (an output value can have several derivations — deleting
  /// one must not silence the others).
  enum class Mode { kInsert, kRetract, kReassert };

  /// Drives `acc` (bindings over ports 0..level) up the pipeline:
  /// insert-and-probe at each level, project at the top.
  void Cascade(std::size_t level, const Binding& acc, Mode mode);

  /// Projects a complete binding to the output sgt and emits it.
  void Project(const Binding& b, Mode mode);

  /// Scrubs every binding matching `pred` from `table`, maintaining the
  /// entry counter and erasing emptied buckets.
  template <typename Pred>
  void ScrubTable(Table* table, std::size_t* entries, Pred&& pred);

  /// Writes `table` and its entry counter.
  static void SerializeTable(const Table& table, std::size_t entries,
                             PayloadOut* out);
  /// Restores one table of `level` and its entry counter, validating
  /// arities, hints and the counter, and registers each bucket's live
  /// hint in serialized key order.
  Status DeserializeTable(int level, bool left, ByteReader* in);

  int num_ports_;
  std::vector<std::pair<int, int>> port_vars_;  ///< (src,trg) var idx
  int out_src_var_;
  int out_trg_var_;
  LabelId out_label_;
  std::size_t num_vars_;
  std::vector<Level> levels_;  ///< size num_ports_ - 1
  StreamingCoalescer out_coalescer_;
  /// Output values retracted by the in-flight deletion (guides kReassert;
  /// drained sorted so the cross-shard union stays reproducible).
  FlatSet<EdgeRef, EdgeRefHash> retracted_values_;
  /// Projections of retracted_values_ onto the output endpoints, used to
  /// prune the kReassert replay: a binding whose bound output variables
  /// cannot produce a retracted value emits nothing (Project filters on
  /// retracted_values_) and its cascade inserts are idempotent — the
  /// deleted value was scrubbed before the replay — so skipping it is
  /// observationally equivalent to replaying it.
  FlatSet<VertexId> retracted_srcs_;
  FlatSet<VertexId> retracted_trgs_;

  /// \brief True when `b` could still derive a retracted output value.
  bool MayReassert(const Binding& b) const;
  /// Sharded execution: store-backed partitions are shared with sibling
  /// shards and written only by the driver (WriteWindows).
  bool window_reader_ = false;
  /// Expiry calendar over the private join tables, one live hint per
  /// bucket (store-backed sides purge through their partition's own
  /// calendar).
  ExpiryCalendar<BucketRef> binding_expiry_;
};

}  // namespace sgq

#endif  // SGQ_CORE_PATTERN_OP_H_
