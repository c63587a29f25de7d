// Explicit dataflow runtime (§6.1): the Executor owns the physical
// operator topology of one compiled query — operator IDs, their typed
// output channels, and the per-timestamp micro-batch ingest queue — and
// drives OnTuple/OnTimeAdvance/Purge waves in topological order.
//
// Every operator runs as one or more instances. With num_workers = N > 1
// an operator has N shard instances, each owning a hash-partition of its
// state (runtime/shard.h), and a persistent WorkerPool runs them in
// parallel; the sink, and every operator at num_workers = 1, has one.
// Delivery runs as topological waves at every configuration: sges buffer
// in the micro-batch queue, and each timestamp group (so window semantics
// are untouched) runs as one wave — batch_size 1 is its one-element case.
// Single-instance sources run element by element in posting order;
// multi-instance sources collect the group's sges per instance and run in
// ascending operator id. Every operator's pending input lives in one flat
// [port × instance] slot array (slot port * instances + instance), and
// the wave runs each dirty operator's slots in place, one OnBatch per
// non-empty slot, port by port: instance s on worker s when more than one
// instance has work, inline otherwise. So an operator sees a port's whole
// input of the wave at once, in the order its producers ran — sources
// element by element in posting order, then each other producer's whole
// output in ascending id — and a time-advance wave runs every
// time-driven operator before it delivers what they emitted. Channels
// point only to later operators, so nothing lands in a slot while it
// runs; a run slot keeps its capacity for the next wave unless it
// reached kPageMapBytes (common/page_allocator.h), which it gives back.
//
// A multi-instance operator's instances emit into per-instance capture
// channels; the post-run merge concatenates them in instance order
// (deterministic run-to-run, whatever the thread schedule) and the
// exchange re-partitions the tuples onto the destinations' slots by each
// destination's declared RoutingKey. A single-instance operator emits
// straight into its destinations' slots, with no capture and no merge, so
// it runs only on the driver thread: its emissions touch the dirty
// worklist. Results are snapshot-equivalent across worker counts; one
// worker is the one-instance case of the same waves.
//
// Dispatch goes through the label-discrimination query index
// (runtime/query_index.h, DESIGN.md §3.1), so per-edge cost tracks the
// operators that can react, not the registered-query population: an edge
// reaches only the sources posted under its label (then the wildcard
// bucket), a wave pops its dirty worklist in ascending operator id — the
// wave order — time-advance phases run only for operators that declare
// HasTimeDrivenWork(), and a slide boundary purges only the operators
// whose expiry calendars have something due (PhysicalOp::PurgeDue).
//
// Window bookkeeping is consolidated in a shared WindowStore
// (runtime/window_store.h) owned by the executor. The shard instances of
// an operator bind the same partitions, and the driver thread is their
// only writer (PhysicalOp::WriteWindows): it applies a wave's window
// writes before the operator's shard section — after it under deletion
// coordination, a deletion's between its two phases — and every window
// purge, so shards only read partitions inside the parallel section and
// need no lock. A lone instance writes its own partitions.

#ifndef SGQ_RUNTIME_EXECUTOR_H_
#define SGQ_RUNTIME_EXECUTOR_H_

#include <deque>
#include <memory>
#include <string>
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

/// \brief Runtime configuration.
struct ExecutorOptions {
  /// Micro-batch size: how many sges the ingest queue buffers before a
  /// flush. 1 runs a wave per element, at the element's arrival.
  std::size_t batch_size = 1;
  /// Number of workers (= shards per operator). 1 (the default) runs
  /// every operator as one instance on the calling thread; N > 1
  /// partitions operator state N ways and drives waves shard-parallel.
  std::size_t num_workers = 1;
  /// Pin threads to cores (best-effort pthread affinity, silent fallback
  /// where unsupported): pool workers to cores [0, num_workers), the
  /// pipeline's parse threads to the slots after them. See
  /// runtime/ingest_pipeline.h.
  bool pin_workers = false;
  /// Out-of-order slack absorbed by the merge stage of RunPipelined: a
  /// stream may carry elements up to this far behind the newest timestamp
  /// seen; older elements are dropped (IngestStats::late_dropped). 0 (the
  /// default) requires an ordered stream.
  Timestamp ingest_slack = 0;
  /// Parse threads of RunPipelined, the merge thread included: N > 1
  /// decodes the stream's chunks on N threads behind the order-restoring
  /// merge; 1 (the default) is a single ingest thread walking every
  /// chunk. Output is byte-identical to synchronous Push at
  /// num_workers=1/batch_size=1 either way. See runtime/ingest_pipeline.h.
  std::size_t ingest_parsers = 1;
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
  /// (queue and dirty worklist empty — i.e. between Flush()es on the
  /// synchronous ingest path). AddOp / Connect / RegisterSource /
  /// AddShardReplica accept appends that only touch operators added
  /// since the last (re-)finalize; FinalizeNewOps then binds and verifies
  /// exactly those appended nodes. The slide granularity is immutable
  /// once fixed: registering a post-Finalize source with a finer slide is
  /// refused (callers pre-check, so a refused live attach leaves the
  /// executor untouched).
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

  /// \brief Pipelined ingest (DESIGN.md §6): options().ingest_parsers
  /// threads decode `stream`'s chunks — the merge thread is parser 0 —
  /// the order-restoring merge re-serializes them, and execution runs on
  /// the calling thread. Equivalent to Ingest()-ing every element of a
  /// ChunkWalkCursor over `stream` in order (byte-identical at
  /// workers=1/batch=1). Honors options().ingest_slack. Parse errors
  /// surface as the returned Status (elements preceding the error still
  /// execute). Counters accumulate in ingest_stats(), including
  /// per-parser stall/busy time. Callable repeatedly.
  Status RunPipelined(const FileChunkSource& stream);
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

  /// \brief The label-discrimination dispatch index (populated by
  /// RegisterSource / RegisterWildcardSource as queries compile).
  const QueryIndex& query_index() const { return query_index_; }

  /// \brief Operator activations: single-instance OnSge deliveries,
  /// per-(operator, port) batch executions — a multi-instance source's
  /// group of sges is one, on port 0 — and per-operator time-advance /
  /// purge phases, at every worker count.
  /// Divided by edges_processed() this is the fanout the dispatch layer
  /// actually paid: O(matching operators) per edge, not O(registered
  /// queries).
  std::size_t ops_touched() const { return ops_touched_; }

  /// \brief Operator visits the query index skipped relative to visiting
  /// every live operator: skipped wave-scan visits, skipped time-advance
  /// phases, skipped purge phases.
  std::size_t index_skipped_dispatches() const { return index_skipped_; }

  /// \brief Tuples the merge-side coalescer suppressed as cross-shard
  /// duplicates (diagnostics; 0 when unsharded).
  std::size_t merge_suppressed() const { return merge_suppressed_; }

  /// \brief Cumulative pipeline counters of every RunPipelined call
  /// (zeros when the pipeline never ran).
  const IngestStats& ingest_stats() const { return ingest_stats_; }

  /// \brief Total state entries (diagnostics): every operator instance's
  /// own state, each WindowStore partition once however many operators
  /// and shards read it, and the merge-side coalescers.
  std::size_t StateSize() const;

  /// \brief Resident bytes of the state StateSize counts (diagnostics;
  /// approximate — container capacities plus arena slabs).
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
  /// Callable only at a batch boundary (between Flush()es): no wave is in
  /// flight, every slot is empty, and the deletion scratch state of every
  /// operator is provably clear. The restore counterpart runs on a freshly
  /// built executor of the same topology and options, before any tuple.
  /// @{

  /// \brief Serializes the clock (current time, next slide boundary,
  /// started flag) and the pending micro-batch queue; slide granularities
  /// are recorded for topology verification at restore.
  void SerializeClock(PayloadOut* out) const;
  Status DeserializeClock(ByteReader* in);

  /// \brief Serializes per-node runtime state: the merge-side coalescer
  /// when enabled and every shard instance's SerializeState as a
  /// length-framed blob (PayloadOut::BeginBlob). Purging is exact at
  /// every boundary, so no purge schedule or dispatch state is carried.
  void SerializeOps(PayloadOut* out) const;
  Status DeserializeOps(ByteReader* in);
  /// @}

 private:
  friend class OutputChannel;
  friend class IngestPipeline;

  /// \brief What only a multi-instance operator has; built at finalize.
  struct ShardState {
    /// Sources: the current group's sges per instance; they run after the
    /// group's postings are walked, and keep their capacity across groups.
    std::vector<std::vector<Sge>> gutters;
    /// One capture channel + emission buffer per instance.
    std::vector<OutputChannel> out;
    std::vector<std::vector<Sgt>> emit;
    /// Input routing per port (cached from InputRouting at finalize).
    std::vector<RoutingKey> routing;
    /// Deletion-coordination handles, one per instance; empty when the
    /// operator does not require coordination.
    std::vector<DeletionCoordination*> coordination;

    /// Merge-side coalescer (when the operator declares
    /// CoalesceAtMerge): the deterministic shard-order merged stream
    /// passes through it before the exchange, suppressing positives a
    /// sibling shard already covered and duplicate cross-shard
    /// retractions of one deletion.
    bool merge_coalesce = false;
    StreamingCoalescer merge_coalescer;
    /// Output values retracted by the in-flight coordinated deletion;
    /// dedupes the negative each retracting shard emits for the same
    /// value. Cleared after the deletion's reassert phase.
    FlatSet<EdgeRef, EdgeRefHash> merge_retracted;
  };

  struct OpNode {
    std::unique_ptr<PhysicalOp> op;
    /// Instances 1..W-1 (instance 0 is `op`); empty for a single-instance
    /// operator.
    std::vector<std::unique_ptr<PhysicalOp>> replicas;
    /// Input ports (one past the highest port Connect targeted).
    std::size_t ports = 0;
    /// Pending input, [port × instance]: slot port * instances + instance,
    /// sized at (re-)finalize. Coordinated-deletion operators keep a
    /// port's whole batch in its instance-0 slot (global arrival order)
    /// and partition it at execution time.
    std::vector<std::vector<Sgt>> slots;
    /// Null for a single-instance operator, so the node table stays small
    /// and cheap to grow by a live attach.
    std::unique_ptr<ShardState> shards;

    /// Source registration of this node (WSCAN leaves), recorded so
    /// RemoveOps can prune the query index without scanning it: the
    /// label, or the wildcard bucket.
    LabelId source_label = kInvalidLabel;
    bool source_wildcard = false;

    /// True while the node sits in the dirty worklist of the current wave
    /// (it has pending input to run).
    bool dirty = false;
    /// True while the node's gutters hold sges of the group being
    /// delivered (it is listed in gutter_ops_).
    bool gutter_queued = false;

    /// The merge-side coalescer, or null when the node has none.
    StreamingCoalescer* merge_coalescer() const {
      return shards != nullptr && shards->merge_coalesce
                 ? &shards->merge_coalescer
                 : nullptr;
    }
  };

  /// \brief Channel entry point of a single-instance operator: routes the
  /// emitted tuple onto its destinations' slots.
  void Route(const OutputChannel& channel, const Sgt& tuple);

  bool sharded() const { return options_.num_workers > 1; }

  /// \brief Channel/slot/shard/coordination setup of one node — the
  /// per-node body shared by Finalize() and FinalizeNewOps().
  Status SetupNodeTopology(std::size_t i);

  /// \brief Aligns the expiry calendars of node `i` — every instance's and
  /// the merge coalescer's — to the engine slide.
  void ConfigureNodeExpirySlide(std::size_t i);

  /// \brief Adds `id` to the current wave's dirty worklist (a min-heap on
  /// OpId, popped ascending by PopDirtyWave).
  void MarkDirty(OpId id);

  /// \brief Runs one wave: pops the dirty worklist in ascending id order
  /// and calls `visit(id)` on each popped operator. Channels only point
  /// to higher ids, so every pop sees all of the wave's input for that
  /// operator and one ascending pass settles the wave.
  template <typename Fn>
  void PopDirtyWave(Fn&& visit);

  /// \brief Exchange: appends `tuple` to the destination's slots of
  /// `dst.port` according to the destination's routing key.
  void RouteToShards(const PortRef& dst, const Sgt& tuple);

  /// \brief Merges operator `id`'s per-instance emission buffers in
  /// instance order and routes every tuple through the exchange (through
  /// the merge-side coalescer first when the node enables it).
  void MergeAndRoute(OpId id);

  /// \brief Merge-side coalescer admission: returns false when `tuple` is
  /// a cross-shard duplicate (covered positive, or repeated retraction of
  /// the in-flight deletion) that a single instance would not have
  /// emitted.
  bool OfferAtMerge(ShardState& shards, const Sgt& tuple);

  /// \brief Runs `run_shard(s)` for every shard — on the worker pool when
  /// more than one shard has work, inline in shard order otherwise (same
  /// result, no dispatch cost).
  template <typename Fn>
  void RunShardsMaybeParallel(std::size_t instances,
                              std::size_t active_shards, Fn&& run_shard);

  /// \brief Runs `fn(instance)` on every instance of operator `id`: a
  /// lone instance inline (its emissions land in the slots), the instances
  /// of a multi-instance operator on the worker pool, then the merge.
  template <typename Fn>
  void RunInstances(OpId id, Fn&& fn);

  /// \brief One topological wave over the pending slots.
  void RunWave();

  /// \brief Runs operator `id`'s pending slots in place and recycles
  /// them, then merges what its instances emitted.
  void RunOpSlots(OpId id);

  /// \brief Coordinated-deletion execution of one globally-ordered port
  /// batch: parallel runs of positive segments, two-phase deletions.
  /// Recycles `batch`.
  void RunCoordinatedBatch(OpId id, int port, std::vector<Sgt>& batch);

  /// \brief Delivers one timestamp group of sges to the sources the query
  /// index posts under their labels, then runs the wave.
  void DeliverSges(const Sge* sges, std::size_t n);

  /// \brief Sharded boundary purge: purges the due window partitions on
  /// the driver, then every due (operator, shard) pair of multi-instance
  /// operators in one dispatch — worker s runs shard s of each due
  /// operator in ascending id order, inline when fewer than two shards
  /// have work — then, in ascending id order, merges each purged
  /// operator's emissions or purges a due single-instance operator on the
  /// driver.
  void PurgeDueShards(Timestamp boundary);

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
  /// Engine-mode output channel of every operator (index == OpId). A
  /// deque, so appending operators leaves the channels already bound in
  /// place: a live attach binds only what it appends.
  std::deque<OutputChannel> channels_;
  QueryIndex query_index_;
  /// Operators with declared time-driven work (HasTimeDrivenWork), in
  /// ascending id order — the only operators whose OnTimeAdvance the
  /// time-advance wave must run (the contract in core/physical.h requires
  /// overriders to declare themselves).
  std::vector<OpId> time_driven_ops_;
  /// Min-heap (std::greater) of dirty node ids for the waves.
  std::vector<OpId> dirty_heap_;
  /// Multi-instance sources whose gutters hold the group being delivered.
  std::vector<OpId> gutter_ops_;
  WindowStore window_store_;
  std::unique_ptr<WorkerPool> pool_;  ///< created by Finalize when sharded
  /// Boundary purge plan (sharded): due operator ids per shard, and the
  /// operators with at least one due shard. Capacity reused per boundary.
  std::vector<std::vector<OpId>> purge_due_;
  std::vector<OpId> purge_due_ops_;
  bool finalized_ = false;
  /// Nodes already bound by Finalize()/FinalizeNewOps(); nodes at or past
  /// this index are un-finalized appends of an in-flight live attach.
  std::size_t finalized_nodes_ = 0;
  /// Operators alive: added minus removed (tombstoned slots excluded).
  std::size_t num_live_ = 0;

  // --- micro-batch ingest queue ---
  std::vector<Sge> queue_;
  /// The batch Flush executes (swapped with queue_; capacity kept).
  std::vector<Sge> batch_;

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
  std::size_t merge_suppressed_ = 0;
  std::size_t ops_touched_ = 0;    ///< driver-thread only (see getter)
  std::size_t index_skipped_ = 0;  ///< driver-thread only (see getter)
  IngestStats ingest_stats_;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_EXECUTOR_H_
