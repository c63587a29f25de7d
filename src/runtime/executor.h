// Explicit dataflow runtime (§6.1): the Executor owns the physical
// operator topology of one compiled query — operator IDs, their typed
// output channels, and the per-timestamp micro-batch ingest queue — and
// drives OnTuple/OnTimeAdvance/MaybePurge waves in topological order.
//
// This replaces the previous recursive push architecture (operator ->
// parent_->OnTuple()) whose unbounded recursion could not batch, share
// state across operators, or parallelize. Delivery is iterative:
//
//  - batch_size == 1 ("tuple-at-a-time"): every ingested sge is routed to
//    its source operators and the resulting cascade is drained on an
//    explicit stack whose segment-reversal discipline reproduces the old
//    depth-first recursion order *exactly* — batch=1 output is
//    byte-identical to the recursive engine.
//  - batch_size > 1: sges buffer in the micro-batch queue (grouped by
//    timestamp, so window semantics are untouched) and each group is
//    processed as a topological wave: every operator receives its pending
//    inputs per port as one OnBatch call. Equivalent result *sets*,
//    amortized per-tuple overhead.
//  - num_workers > 1 ("sharded mode"): every operator has num_workers
//    shard instances, each owning a hash-partition of the operator's
//    state (runtime/shard.h). A persistent WorkerPool drives each
//    topological wave shard-parallel: shard s of the current operator
//    runs on worker s with a lock-free capture channel; the post-wave
//    merge concatenates the capture buffers in shard order (deterministic
//    run-to-run) and the exchange re-partitions the merged tuples onto
//    the destination operators' shards according to their declared
//    RoutingKey. Results are snapshot-equivalent to num_workers = 1;
//    num_workers = 1 takes the unsharded code paths untouched and stays
//    byte-identical to the pre-sharding engine.
//
// Window bookkeeping is consolidated in a shared WindowStore
// (runtime/window_store.h) owned by the executor. Sharded instances
// acquire shard-suffixed partitions, so a partition is only ever touched
// by one shard index — the worker-pool barrier between operators orders
// accesses by co-indexed shards of different operators.

#ifndef SGQ_RUNTIME_EXECUTOR_H_
#define SGQ_RUNTIME_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/physical.h"
#include "model/coalesce.h"
#include "model/sgt.h"
#include "runtime/channel.h"
#include "runtime/ingest_pipeline.h"
#include "runtime/query_index.h"
#include "runtime/shard.h"
#include "runtime/window_store.h"
#include "runtime/worker_pool.h"

namespace sgq {

/// \brief Default state bar for the time-advance dispatch heuristic —
/// defined once; EngineOptions forwards the same knob (core/engine.h).
inline constexpr std::size_t kDefaultTimeAdvanceParallelStateBar = 8192;

/// \brief Runtime configuration.
struct ExecutorOptions {
  /// Micro-batch size: how many sges the ingest queue buffers before a
  /// flush. 1 reproduces tuple-at-a-time semantics exactly.
  std::size_t batch_size = 1;
  /// Number of workers (= shards per operator). 1 (the default) runs the
  /// classic single-threaded engine byte-identically; N > 1 partitions
  /// operator state N ways and drives waves shard-parallel.
  std::size_t num_workers = 1;
  /// Sharded mode: dispatch an operator's time-advance wave to the worker
  /// pool once any single shard instance holds at least this much state —
  /// in addition to operators declaring HasTimeDrivenWork(), whose expiry
  /// work is always worth the dispatch. The bar is re-evaluated at slide
  /// boundaries (amortized: StateSize() is not free, and time advances
  /// fire per distinct input timestamp). 0 disables the heuristic.
  std::size_t time_advance_parallel_state_bar =
      kDefaultTimeAdvanceParallelStateBar;
  /// Double-buffered async ingest (DESIGN.md §6): RunPipelined parses /
  /// produces batch N+1 on a dedicated ingest thread while batch N
  /// executes. Execution order is unchanged — workers=1/batch=1 output
  /// stays byte-identical; the flag only selects where producer work runs.
  bool async_ingest = false;
  /// Bounded depth of the pipeline's ready-batch SPSC queue (backpressure
  /// bound: at most this many parsed batches wait for execution).
  std::size_t ingest_queue_depth = 4;
  /// Pin threads to cores (best-effort pthread affinity, silent fallback
  /// where unsupported): pool workers to cores [0, num_workers), the
  /// ingest thread to the next slot. See runtime/ingest_pipeline.h.
  bool pin_workers = false;
  /// Out-of-order slack absorbed by the ingest stage of RunPipelined: a
  /// producer may emit elements up to this far behind the newest timestamp
  /// seen; older elements are dropped (IngestStats::late_dropped). 0 (the
  /// default) requires an ordered producer.
  Timestamp ingest_slack = 0;
  /// Parser threads of the sharded parse stage (RunPipelinedSharded):
  /// N > 1 decodes the stream's chunks on N threads with an order-
  /// restoring merge ahead of the batch hand-off; 1 (the default) is the
  /// classic single-producer pipeline (byte-identical output at
  /// num_workers=1/batch_size=1). See runtime/ingest_pipeline.h.
  std::size_t ingest_parsers = 1;
  /// Query-index dispatch (DESIGN.md §3.1): route work through the
  /// label-discrimination index so per-edge cost tracks the operators that
  /// can match, not the registered-query population — wave scans walk a
  /// dirty worklist instead of the whole topology, time-advance waves
  /// visit only operators with declared time-driven work (plus the
  /// state-bar hints in sharded mode), and purge scans skip operators
  /// that never received input. Off reproduces the legacy full-scan
  /// dispatch. Both settings are byte-identical at num_workers=1/
  /// batch_size=1 and snapshot-equivalent + deterministic sharded
  /// (tests/query_index_test.cc).
  bool use_query_index = true;
};

/// \brief Owns and drives the operator topology of one running query.
class Executor {
 public:
  explicit Executor(ExecutorOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// \name Topology construction (before Finalize)
  /// @{

  /// \brief Adds an operator; returns its id. Operators must be added
  /// children-first: the insertion order doubles as the wave order and is
  /// verified to be topological by Finalize().
  OpId AddOp(std::unique_ptr<PhysicalOp> op);

  /// \brief Attaches one additional shard instance to operator `id`
  /// (sharded mode only). The compiler calls this num_workers - 1 times
  /// per sharded operator; an operator left with a single instance (the
  /// sink) receives every tuple on that instance. Replicas must be
  /// structurally identical to the primary — they share its channel
  /// destinations and routing declarations.
  Status AddShardReplica(OpId id, std::unique_ptr<PhysicalOp> shard);

  /// \brief Connects `from`'s output channel to input `port` of `to`.
  /// A channel may have several destinations (fan-out); delivery follows
  /// connection order.
  Status Connect(OpId from, OpId to, int port);

  /// \brief Registers `source` as a consumer of raw sges with `label`.
  /// `slide` is the source's window slide; the engine's slide granularity
  /// is the finest slide of any source.
  Status RegisterSource(LabelId label, OpId source, Timestamp slide);

  /// \brief Registers `source` as a consumer of *every* raw sge
  /// regardless of label (the query index's always-on bucket). Each edge
  /// is delivered to label-matched sources first (registration order),
  /// then wildcard sources in their registration order.
  Status RegisterWildcardSource(OpId source, Timestamp slide);

  /// \brief Validates the topology (edges must go from lower to higher op
  /// id — children-first insertion), binds channels, and fixes the slide
  /// granularity. Must be called once before ingesting.
  Status Finalize();
  /// @}

  /// \name Live topology updates (after Finalize, DESIGN.md §10)
  ///
  /// A finalized executor can still grow and shrink at batch boundaries
  /// (queue, delivery stack and dirty worklist empty — i.e. between
  /// Flush()es on the synchronous ingest path). AddOp / Connect /
  /// RegisterSource / AddShardReplica accept appends that only touch
  /// operators added since the last (re-)finalize; FinalizeNewOps then
  /// binds and verifies exactly those appended nodes. The slide
  /// granularity is immutable once fixed: registering a post-Finalize
  /// source with a finer slide is refused (callers pre-check, so a
  /// refused live attach leaves the executor untouched).
  /// @{

  /// \brief Binds channels, shard structures, expiry calendars and
  /// time-advance registration for every operator appended after the last
  /// Finalize()/FinalizeNewOps(). O(appended subtree).
  Status FinalizeNewOps();

  /// \brief Removes `dead` operators from the running topology —
  /// tombstoning their node slots (ids are never reused), releasing their
  /// state, pruning their source/index/time-advance registrations — and
  /// unlinks the channel edges in `unlink` (pairs of live child → dead
  /// parent, computed by the caller from its sharing refcounts). Callable
  /// only at a batch boundary; O(removed subtree).
  Status RemoveOps(const std::vector<OpId>& dead,
                   const std::vector<std::pair<OpId, OpId>>& unlink);

  /// \brief Operators alive (added minus removed); NumOps() counts slots,
  /// tombstones included.
  std::size_t NumLiveOps() const { return num_live_; }
  /// @}

  /// \name Streaming
  /// @{

  /// \brief Feeds one stream element into the micro-batch queue;
  /// timestamps must be non-decreasing. Flushes when the queue reaches
  /// batch_size.
  void Ingest(const Sge& sge);

  /// \brief Drains the micro-batch queue: groups buffered sges by
  /// timestamp, advances the clock between groups (processing slide
  /// boundaries and expirations), and runs each group through the
  /// topology.
  void Flush();

  /// \brief Flushes, then advances time to `t` without new input
  /// (processing slide boundaries and expirations on the way).
  void AdvanceTo(Timestamp t);

  /// \brief Pipelined ingest (DESIGN.md §6): drains `fill` through the
  /// double-buffered ingest pipeline — producer work on a dedicated
  /// ingest thread, execution on the calling thread — and returns when
  /// the producer is exhausted and every batch has executed. Equivalent
  /// to Ingest()-ing every produced element in order (byte-identical at
  /// workers=1/batch=1). Honors options().ingest_slack; stall/late
  /// counters accumulate in ingest_stats(). Callable repeatedly.
  void RunPipelined(const IngestProducer& fill);

  /// \brief Sharded-parse pipelined ingest: options().ingest_parsers
  /// threads decode `stream`'s chunks concurrently, the order-restoring
  /// merge re-serializes them, and execution runs on the calling thread —
  /// element order and batch boundaries are exactly RunPipelined's over a
  /// sequential cursor. Parse errors surface as the returned Status
  /// (elements preceding the error still execute). Counters accumulate in
  /// ingest_stats(), including per-parser stall/busy time.
  Status RunPipelinedSharded(const ChunkedStream& stream);
  /// @}

  /// \name Introspection
  /// @{
  PhysicalOp* op(OpId id) const;
  std::size_t NumOps() const { return nodes_.size(); }

  /// \brief Number of shard instances of operator `id` (1 when unsharded).
  std::size_t NumInstances(OpId id) const;
  /// \brief Shard instance `shard` of operator `id` (shard 0 == op(id)).
  PhysicalOp* instance(OpId id, std::size_t shard) const;
  WindowStore* window_store() { return &window_store_; }
  const WindowStore* window_store() const { return &window_store_; }
  const ExecutorOptions& options() const { return options_; }

  const LatencyRecorder& slide_latencies() const { return slide_latencies_; }
  std::size_t edges_pushed() const { return edges_pushed_.value(); }
  std::size_t edges_processed() const { return edges_processed_.value(); }
  std::size_t num_waves() const { return num_waves_; }

  /// \brief Time-advance pool dispatches credited to the state-bar
  /// heuristic (i.e. for operators without declared time-driven work).
  std::size_t state_bar_dispatches() const { return state_bar_dispatches_; }

  /// \brief The label-discrimination dispatch index (populated by
  /// RegisterSource / RegisterWildcardSource as queries compile).
  const QueryIndex& query_index() const { return query_index_; }

  /// \brief Operator activations: OnSge deliveries, per-(operator, port)
  /// batch executions, and per-operator time-advance / purge phases.
  /// Divided by edges_processed() this is the fanout the dispatch layer
  /// actually paid — O(registered queries) per edge under legacy
  /// broadcast phases, O(matching operators) with the query index on.
  /// (Tuple-mode cascades within one delivery count as one activation.)
  std::size_t ops_touched() const { return ops_touched_; }

  /// \brief Operator visits the query index pruned relative to the legacy
  /// full-scan dispatch: skipped wave-scan visits, skipped time-advance
  /// phases, skipped purge phases. Always 0 with use_query_index off.
  std::size_t index_skipped_dispatches() const { return index_skipped_; }

  /// \brief Tuples the merge-side coalescer suppressed as cross-shard
  /// duplicates (diagnostics; 0 when unsharded).
  std::size_t merge_suppressed() const { return merge_suppressed_; }

  /// \brief Cumulative pipeline counters of every RunPipelined call
  /// (zeros when the pipeline never ran).
  const IngestStats& ingest_stats() const { return ingest_stats_; }

  /// \brief Total operator state entries (diagnostics). Shared window
  /// partitions are counted once per consumer (each consumer's watermark
  /// must see them).
  std::size_t StateSize() const;

  /// \brief Resident operator-state bytes (diagnostics; approximate —
  /// container capacities plus arena slabs, shared window partitions
  /// counted once per consumer like StateSize).
  std::size_t StateBytes() const;

  /// \brief Timestamps every operator has been advanced to so far.
  Timestamp now() const { return current_time_; }
  Timestamp slide() const { return slide_; }

  /// \brief Human-readable topology: one line per operator with its
  /// channel destinations.
  std::string DescribeTopology() const;
  /// @}

  /// \name Checkpoint/restore (model/checkpoint.h, DESIGN.md §7)
  ///
  /// Callable only at a batch boundary (between Flush()es): the delivery
  /// stack is empty, no wave is in flight, and the deletion scratch state
  /// of every operator is provably clear. The restore counterpart runs on
  /// a freshly built executor of the same topology and options, before any
  /// tuple.
  /// @{

  /// \brief Serializes the clock (current time, next slide boundary,
  /// started flag) and the pending micro-batch queue; slide granularities
  /// are recorded for topology verification at restore.
  void SerializeClock(std::string* out) const;
  Status DeserializeClock(ByteReader* in);

  /// \brief Serializes per-node runtime state: the touched bit (indexed
  /// purge dispatch), the merge-side coalescer + its purge watermark when
  /// enabled, and every shard instance's purge watermark plus its
  /// length-framed SerializeState blob — streamed into the open section
  /// of `out` one operator instance at a time.
  Status SerializeOps(CheckpointWriter* out) const;
  Status DeserializeOps(ByteReader* in);
  /// @}

 private:
  friend class OutputChannel;
  friend class IngestPipeline;

  struct OpNode {
    std::unique_ptr<PhysicalOp> op;
    OutputChannel out;
    /// Per-port pending input buffers (wave mode).
    std::vector<std::vector<Sgt>> pending;

    // --- sharded mode (num_workers > 1) ---
    /// Shard instances 1..W-1 (shard 0 is `op`); empty when unsharded.
    std::vector<std::unique_ptr<PhysicalOp>> replicas;
    /// One capture channel + emission buffer per instance.
    std::vector<OutputChannel> shard_out;
    std::vector<std::vector<Sgt>> shard_emit;
    /// Pending inputs per [port][shard]. Coordinated-deletion operators
    /// keep the whole port batch in shard slot 0 (global arrival order)
    /// and partition at execution time.
    std::vector<std::vector<std::vector<Sgt>>> shard_pending;
    /// Same shape as shard_pending; waves swap pending batches in here
    /// before running them, so buffer capacity is reused across waves.
    std::vector<std::vector<std::vector<Sgt>>> shard_scratch;
    /// Input routing per port (cached from InputRouting at Finalize).
    std::vector<RoutingKey> routing;
    /// Deletion-coordination handles, one per instance; empty when the
    /// operator does not require coordination.
    std::vector<DeletionCoordination*> coordination;

    /// Merge-side coalescer (set at Finalize when the operator is
    /// multi-instance and declares CoalesceAtMerge): the deterministic
    /// shard-order merged stream passes through it before the exchange,
    /// suppressing positives a sibling shard already covered and
    /// duplicate cross-shard retractions of one deletion.
    bool merge_coalesce = false;
    StreamingCoalescer merge_coalescer;
    /// Output values retracted by the in-flight coordinated deletion;
    /// dedupes the negative each retracting shard emits for the same
    /// value. Cleared after the deletion's reassert phase.
    FlatSet<EdgeRef, EdgeRefHash> merge_retracted;
    /// Amortized purge watermark for merge_coalescer (doubling, like
    /// PhysicalOp::MaybePurge).
    std::size_t merge_purge_watermark = 1024;

    /// Time-advance dispatch hint (sharded mode): true when some shard's
    /// StateSize() met options_.time_advance_parallel_state_bar at the
    /// last slide boundary. OR-ed with the operator's HasTimeDrivenWork().
    bool time_advance_parallel = false;

    /// Source registration of this node (WSCAN leaves), recorded so
    /// RemoveOps can prune the per-label tables and the query index
    /// without scanning them: the label, or the wildcard bucket.
    LabelId source_label = kInvalidLabel;
    bool source_wildcard = false;

    /// Indexed dispatch (use_query_index): true while the node sits in the
    /// dirty worklist of the current wave (it has pending input to run).
    bool dirty = false;
    /// Monotone: the node received input at least once (directly or via
    /// its upstream cone), so it may hold state worth a purge scan.
    /// Never-touched operators are skipped by the indexed boundary
    /// phases — exact, because operator state only grows from input.
    bool touched = false;
  };

  /// \brief Channel entry point: dispatches an emitted tuple according to
  /// the active drain mode.
  void Route(const OutputChannel& channel, const Sgt& tuple);

  /// \brief Routes one sge to its registered sources. In tuple mode each
  /// source's cascade is drained to completion before the next source
  /// (matching the recursive engine); in wave mode emissions buffer.
  void DeliverSge(const Sge& sge);

  /// \brief True when the runtime batches (batch_size > 1): emissions
  /// buffer per (op, port) and propagate in topological waves. Tuple mode
  /// (batch_size == 1) reproduces recursive depth-first delivery exactly.
  bool wave_mode() const { return options_.batch_size > 1; }

  /// \brief True when dispatch consults the query index (DESIGN.md §3.1).
  bool indexed() const { return options_.use_query_index; }

  /// \brief Channel/shard/coordination setup of one node — the per-node
  /// body shared by Finalize() and FinalizeNewOps().
  Status SetupNodeTopology(std::size_t i);

  /// \brief Adds `id` to the current wave's dirty worklist (min-heap on
  /// OpId: popping ascending reproduces the legacy full scan's node
  /// order — channels only point to higher ids, so one ascending pass
  /// settles a wave).
  void MarkDirty(OpId id);

  /// \brief Marks `id` and its downstream cone as touched (first input).
  void MarkTouchedCone(OpId id);

  /// \brief Delivers one sge to `source` in tuple/wave mode (shared body
  /// of the indexed and legacy DeliverSge paths).
  void DeliverSgeToSource(const Sge& sge, OpId source);

  /// \brief Runs one operator phase call (OnSge / OnTimeAdvance /
  /// MaybePurge) and delivers whatever it emitted.
  template <typename Fn>
  void RunOpPhase(Fn&& fn);

  /// \brief Drains the tuple-mode delivery stack (exact DFS order).
  void DrainStack();

  /// \brief Runs one topological wave over the pending buffers.
  void RunWave();

  /// \name Sharded execution (num_workers > 1)
  /// @{
  bool sharded() const { return options_.num_workers > 1; }

  /// \brief Exchange: appends `tuple` to the destination's per-shard
  /// pending buffers according to the destination's routing key.
  void RouteToShards(const PortRef& dst, const Sgt& tuple);

  /// \brief Merges operator `id`'s per-shard emission buffers in shard
  /// order and routes every tuple through the exchange (through the
  /// merge-side coalescer first when the node enables it).
  void MergeAndRoute(OpId id);

  /// \brief Merge-side coalescer admission: returns false when `tuple` is
  /// a cross-shard duplicate (covered positive, or repeated retraction of
  /// the in-flight deletion) that a single instance would not have
  /// emitted.
  bool OfferAtMerge(OpNode& node, const Sgt& tuple);

  /// \brief Re-evaluates every node's time-advance dispatch hint against
  /// the state bar (called at slide boundaries).
  void UpdateTimeAdvanceHints();

  /// \brief Runs `run_shard(s)` for every shard — on the worker pool when
  /// more than one shard has work, inline in shard order otherwise (same
  /// result, no dispatch cost).
  template <typename Fn>
  void RunShardsMaybeParallel(std::size_t instances,
                              std::size_t active_shards, Fn&& run_shard);

  /// \brief Runs `fn(instance)` across the operator's instances — on the
  /// worker pool when `parallel`, inline in shard order otherwise (same
  /// result, no dispatch cost) — and merges the captured emissions.
  template <typename Fn>
  void RunInstances(OpId id, bool parallel, Fn&& fn);

  /// \brief One topological wave over the sharded pending buffers.
  void RunShardedWave();

  /// \brief Runs the operator's port batches (previously swapped into its
  /// shard_scratch), shard-parallel; leaves the scratch slots empty with
  /// their capacity intact.
  void RunShardedOpBatches(OpId id);

  /// \brief Coordinated-deletion execution of one globally-ordered port
  /// batch: parallel runs of positive segments, two-phase deletions.
  /// Clears `batch` (capacity preserved).
  void RunCoordinatedBatch(OpId id, int port, std::vector<Sgt>& batch);

  /// \brief Routes one timestamp group of sges to the source shards and
  /// drains the resulting waves.
  void DeliverSgesSharded(const Sge* sges, std::size_t n);
  /// @}

  /// \brief Runs one timestamp-ordered batch through the topology:
  /// groups by distinct timestamp, advances the clock between groups and
  /// delivers each group — the body shared by Flush() and the pipeline.
  void ExecuteOrderedBatch(const Sge* sges, std::size_t n);

  /// \brief Pipeline entry point (called from IngestPipeline on the
  /// execution thread): validates the ordering contract Ingest() would
  /// have enforced per element, then executes the batch.
  void ExecutePipelinedBatch(const Sge* sges, std::size_t n);

  /// \brief Advances the clock to `t`: processes every slide boundary
  /// passed on the way and runs a time-advance wave for the new distinct
  /// timestamp. Does not touch the ingest queue.
  void AdvanceClock(Timestamp t);

  void ProcessBoundary(Timestamp boundary);
  void TimeAdvanceWave(Timestamp now);

  ExecutorOptions options_;
  std::vector<OpNode> nodes_;  ///< index == OpId; insertion is wave order
  /// Legacy per-label source table (use_query_index off). The indexed
  /// path reads query_index_ instead; both are maintained by
  /// RegisterSource so the flag can differ between otherwise-identical
  /// runs (the differential tests rely on that).
  std::unordered_map<LabelId, std::vector<OpId>> sources_;
  std::vector<OpId> wildcard_sources_;  ///< legacy always-on bucket
  QueryIndex query_index_;
  /// Operators with declared time-driven work (HasTimeDrivenWork), in
  /// ascending id order — the only operators whose OnTimeAdvance the
  /// indexed time-advance wave must run (the contract in core/physical.h
  /// requires overriders to declare themselves).
  std::vector<OpId> time_driven_ops_;
  /// Sharded indexed mode: operators promoted by the state-bar hint at
  /// the last boundary (ascending; disjoint from time_driven_ops_).
  std::vector<OpId> time_advance_hinted_;
  /// Min-heap (std::greater) of dirty node ids for the indexed waves.
  std::vector<OpId> dirty_heap_;
  WindowStore window_store_;
  std::unique_ptr<WorkerPool> pool_;  ///< created by Finalize when sharded
  bool finalized_ = false;
  /// Nodes already bound by Finalize()/FinalizeNewOps(); nodes at or past
  /// this index are un-finalized appends of an in-flight live attach.
  std::size_t finalized_nodes_ = 0;
  /// Operators alive: added minus removed (tombstoned slots excluded).
  std::size_t num_live_ = 0;

  // --- micro-batch ingest queue ---
  std::vector<Sge> queue_;

  // --- drain state ---
  std::vector<std::pair<PortRef, Sgt>> stack_;
  std::vector<std::pair<PortRef, Sgt>>* segment_ = nullptr;
  std::size_t num_waves_ = 0;

  // --- clock ---
  Timestamp current_time_ = kMinTimestamp;
  Timestamp min_slide_ = kMaxTimestamp;  ///< finest registered source slide
  Timestamp slide_ = 1;
  Timestamp next_boundary_ = kMinTimestamp;
  bool started_ = false;

  // --- metrics ---
  LatencyRecorder slide_latencies_;
  double slide_accum_seconds_ = 0;
  Counter edges_pushed_;
  Counter edges_processed_;
  std::size_t state_bar_dispatches_ = 0;
  std::size_t merge_suppressed_ = 0;
  std::size_t ops_touched_ = 0;    ///< driver-thread only (see getter)
  std::size_t index_skipped_ = 0;  ///< driver-thread only (see getter)
  IngestStats ingest_stats_;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_EXECUTOR_H_
