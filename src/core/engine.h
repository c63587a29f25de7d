// Multi-query engine: hosts N persistent queries on one shared Executor
// with cross-query operator sharing.
//
// The paper evaluates one standing query per engine; a production service
// evaluates many against the same stream, and real workloads overlap
// heavily (Zervakis et al., "Efficient Continuous Multi-Query Processing
// over Graph Streams"). The Engine exploits that: every registered logical
// plan is compiled onto the *same* dataflow topology, and any subtree whose
// canonical PlanSignature (algebra/translate.h) matches an already-compiled
// subtree resolves to the existing physical operator — its output channel
// simply fans out to the new consumer. A WSCAN, FILTER chain, PATH (equal
// regex + window + input) or whole PATTERN prefix referenced by K queries
// therefore runs ONCE per stream element, regardless of K; only the
// disjoint suffixes and the per-query SinkOps multiply.
//
// Sharing rules (what is shareable and why — see DESIGN.md §3):
//  - signature equality is the criterion: PlanSignature equality
//    implies output-stream equality for every input, so fanning one
//    operator out to every consumer is behaviorally invisible;
//  - one relaxation: PATTERNs equal up to their head label
//    (JoinSignature) share one join. The join emits the label it was
//    compiled under; each other label reads it through a stateless
//    relabel UNION whose output is exactly the join compiled under that
//    label;
//  - PATTERN variables are alpha-renamed inside the signature, so patterns
//    differing only in variable spelling share;
//  - operators with signature-distinct inputs are never merged, which
//    keeps the per-operator WindowStore partition discipline (PATTERN
//    deletion replay) intact — distinct operators keep distinct `atom:`
//    partitions exactly as before;
//  - the physical PATH implementation is engine-wide (EngineOptions::
//    path_impl), so a signature never aliases two different operator
//    implementations.
//
// Output demultiplexing: every query gets its own SinkOp appended after
// its (possibly shared) root, so per-query results accumulate
// independently. Each query's result stream is snapshot-equivalent to
// compiling it alone, at every batch size and worker count: a shared
// operator's emissions are a pure function of the input stream. The
// order it emits them in is the wave order (runtime/executor.h): a port
// takes its producers' output in ascending id order, and sharing can
// permute those ids, so a query whose port mixes producers (a UNION's
// branches) can order its stream differently than alone. Where sharing
// leaves that order as it is, one worker's stream is byte-identical to
// the solo run's; sharded runs are deterministic run-to-run.
// tests/multi_query_test.cc verifies all three (DESIGN.md §3).

#ifndef SGQ_CORE_ENGINE_H_
#define SGQ_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/basic_ops.h"
#include "core/physical.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "query/rq.h"
#include "runtime/executor.h"

namespace sgq {

/// \brief Identifier of one registered query inside an Engine.
using QueryId = int32_t;

/// \brief Engine configuration.
struct EngineOptions {
  /// Physical implementation chosen for PATH operators (§6.2.3/§6.2.4).
  /// Engine-wide: a shared subtree must resolve to one implementation.
  PathImpl path_impl = PathImpl::kSPath;
  /// Micro-batch size of the runtime's ingest queue. 1 (the default)
  /// runs a wave per element as it arrives; larger values trade result
  /// latency for throughput (results materialize when the batch flushes
  /// — on overflow, timestamp change handling, AdvanceTo, or
  /// TakeResults).
  std::size_t batch_size = 1;
  /// Number of runtime workers (DESIGN.md §2.4). 1 (the default) runs
  /// every operator as one instance on the calling thread. N > 1
  /// compiles every operator into N shard instances whose state is
  /// hash-partitioned by the operator's routing key, and drives waves
  /// shard-parallel on a persistent worker pool; results are
  /// snapshot-equivalent to num_workers = 1 and deterministic
  /// run-to-run. Best combined with batch_size > 1 so each wave carries
  /// enough tuples to spread.
  std::size_t num_workers = 1;
  /// Share signature-identical operator subtrees across registered
  /// queries (DESIGN.md §3). When false, sharing is scoped to one query
  /// (each AddPlan compiles a private topology) — the ablation baseline
  /// bench_multi_query measures against.
  bool cross_query_sharing = true;
  /// Pin runtime threads to cores: workers to [0, num_workers), the
  /// pipeline's parse threads to the slots after them. Best-effort
  /// pthread affinity with silent fallback on unsupported platforms.
  /// Forwarded to ExecutorOptions under the same name, like the knobs
  /// below.
  bool pin_workers = false;
  /// Out-of-order slack absorbed ahead of execution: elements more than
  /// this far behind the newest seen timestamp are dropped late. Applied
  /// by the pipeline's merge stage (RunPipelined) and by the synchronous
  /// chunk walks' ReorderBuffer (workload/harness.h Run, the CLI); Push
  /// and PushAll require an ordered stream regardless.
  Timestamp ingest_slack = 0;
  /// Parse threads of RunPipelined (DESIGN.md §6), the merge thread
  /// included: N > 1 decodes stream chunks on N threads behind the
  /// order-restoring merge; 1 (the default) is one ingest thread.
  std::size_t ingest_parsers = 1;
};

/// \brief N persistent queries compiled onto one shared dataflow.
///
/// Typical use:
/// \code
///   Engine engine(options);
///   QueryId q0 = *engine.AddQuery(query0, vocab);
///   QueryId q1 = *engine.AddQuery(query1, vocab);
///   engine.Finalize().IgnoreError();  // check in real code
///   for (const Sge& e : stream) engine.Push(e);
///   for (const Sgt& r : engine.results(q0)) ...
/// \endcode
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \name Registration (batch before Finalize, live after — DESIGN.md §10)
  /// @{

  /// \brief Compiles `plan` onto the shared topology, reusing every
  /// already-compiled subtree with an equal canonical signature, and
  /// appends a per-query sink.
  ///
  /// Callable before Finalize (batch registration) AND after (live
  /// attach): a finalized engine validates the plan up front — including
  /// that no window slide is finer than the running granularity, which is
  /// fixed at Finalize — flushes any buffered micro-batch (attach happens
  /// at a batch boundary), compiles the plan, and binds the appended
  /// operators incrementally. A refused live attach (malformed plan,
  /// too-fine slide) leaves the engine untouched and running. A
  /// live-attached query sees the stream from its attach point onward;
  /// when it shares a subtree with running queries it adopts that
  /// subtree's accumulated state (the sharing is the point). Not callable
  /// concurrently with an async ingest pipeline.
  Result<QueryId> AddPlan(const LogicalOp& plan, const Vocabulary& vocab);

  /// \brief Translates the SGQ to its canonical plan and registers it.
  Result<QueryId> AddQuery(const StreamingGraphQuery& query,
                           const Vocabulary& vocab);

  /// \brief Finalizes the runtime topology and fixes the slide
  /// granularity. Must be called once before ingesting; afterwards
  /// AddQuery/RemoveQuery keep working live at batch boundaries.
  Status Finalize();

  /// \brief Detaches a live query from the running engine without
  /// rebuilding the executor (DESIGN.md §10). Operators are
  /// reference-counted by the queries whose canonical plan signatures
  /// reach them: removal decrements the refcounts of `q`'s reachable
  /// operators, and every operator that drops to zero is unlinked from
  /// its surviving producers, deregistered from the query index and the
  /// expiry machinery, and destroyed together with its window-store
  /// partitions and (future) checkpoint sections. O(removed subtree).
  ///
  /// Surviving queries are snapshot-equivalent to a never-added run —
  /// byte-identical at workers=1 where that run gives each port's
  /// producers the same id order (DESIGN.md §3) — provided the removed
  /// query did not own the engine's finest slide: the granularity stays
  /// fixed at the finest slide ever registered. The QueryId is never reused;
  /// results(q)/TakeResults(q) on a removed query are programmer errors.
  /// Callable at any batch boundary; flushes buffered input first. Not
  /// callable concurrently with an async ingest pipeline.
  Status RemoveQuery(QueryId q);

  /// \brief Whether query `q` is still attached (false after RemoveQuery).
  bool IsLive(QueryId q) const;
  /// @}

  /// \name Streaming (after Finalize)
  /// @{

  /// \brief Feeds one stream element to every registered query;
  /// timestamps must be non-decreasing. Elements whose label no query
  /// consumes are discarded (§7.2.1).
  void Push(const Sge& sge) { executor_.Ingest(sge); }

  /// \name Checkpoint/restore (model/checkpoint.h, DESIGN.md §7)
  ///
  /// Checkpoint() is callable at any batch boundary — i.e. between Push()
  /// calls on the synchronous ingest path (no wave is ever in flight
  /// there; a pending partial micro-batch is captured and restored, so
  /// batch grouping survives the restart). It is NOT callable while an
  /// async ingest pipeline is running. Restore() runs on a freshly built
  /// engine: construct with the same EngineOptions, re-register the same
  /// queries in the same order, Finalize(), then Restore. At workers=1 a
  /// resumed run is byte-identical to the uninterrupted one; sharded runs
  /// keep the snapshot-equivalent + deterministic contract.
  /// @{

  /// \brief Writes a complete SGQC snapshot to `path`. State serialization
  /// runs synchronously and streams into `path + ".tmp"` (the measured
  /// ingest stall, checkpoint_write_ns); a write error is returned from
  /// this call, with the temp file removed and any previous file at `path`
  /// untouched. Making the file durable (fsync + atomic rename) happens on
  /// a background thread, joined by the next Checkpoint()/
  /// WaitForCheckpoint() or the destructor. `vocab` (when given) is captured for restore-time
  /// verification; `extra` sections are stored verbatim (the CLI uses one
  /// for its reorder-buffer stage). Section names starting with "x-" are
  /// reserved for extras.
  Status Checkpoint(const std::string& path,
                    const Vocabulary* vocab = nullptr,
                    std::vector<std::pair<std::string, std::string>> extra =
                        {});

  /// \brief Loads and fully validates the SGQC snapshot at `path` (CRCs,
  /// version, EngineOptions identity keys, query set, topology), then
  /// restores every operator, window partition, and the clock. Any
  /// validation failure leaves no partial restore observable — the engine
  /// must be discarded (state may be partially populated internally).
  /// `vocab` is verified-and-adopted: every stored name is re-interned and
  /// must resolve to its stored id. Extra sections ("x-…") are returned
  /// through `extra_out` when present.
  Status Restore(const std::string& path, Vocabulary* vocab = nullptr,
                 std::unordered_map<std::string, std::string>* extra_out =
                     nullptr);

  /// \brief Joins the in-flight background checkpoint write, surfacing its
  /// status (OK when none is pending).
  Status WaitForCheckpoint();

  /// \brief Stream elements ingested across restarts: elements pushed into
  /// this engine plus those replayed from a restored checkpoint. A resume
  /// driver skips this many elements of the original stream.
  std::uint64_t ingested() const {
    return restored_ingested_ + executor_.edges_pushed();
  }

  /// \brief Cumulative synchronous checkpoint stall (state serialization
  /// and its buffered writes into the temp file, nanoseconds) and total
  /// checkpoint bytes written.
  std::uint64_t checkpoint_write_ns() const { return checkpoint_write_ns_; }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }
  /// @}

  /// \brief Feeds a whole, already decoded stream in order through Push
  /// and flushes the ingest queue.
  void PushAll(const InputStream& stream);

  /// \brief Pipelined ingest of raw stream bytes: options().ingest_parsers
  /// threads decode `stream`'s chunks behind an order-restoring merge
  /// while execution runs on the calling thread; parse errors surface as
  /// the returned Status (elements preceding the error still execute).
  /// See runtime/ingest_pipeline.h.
  Status RunPipelined(const FileChunkSource& stream) {
    return executor_.RunPipelined(stream);
  }

  /// \brief Cumulative async-ingest pipeline counters (zeros when the
  /// pipeline never ran).
  const IngestStats& ingest_stats() const {
    return executor_.ingest_stats();
  }

  /// \brief Advances time (processing slide boundaries and expirations)
  /// without new input, e.g. to drain final window movements.
  void AdvanceTo(Timestamp t) { executor_.AdvanceTo(t); }

  /// \brief Drains any buffered micro-batch (no-op at batch_size 1).
  void Flush() { executor_.Flush(); }
  /// @}

  /// \name Per-query results (demux)
  /// @{

  /// \brief Total registrations ever (QueryId range); removed queries
  /// keep their id. See NumLiveQueries() for the attached population.
  std::size_t num_queries() const { return sinks_.size(); }

  /// \brief Queries currently attached (registered minus removed).
  std::size_t NumLiveQueries() const { return live_queries_; }

  /// \brief All results query `q` emitted so far (coalesced if
  /// configured). With batch_size > 1, reflects the input flushed so far.
  const std::vector<Sgt>& results(QueryId q) const {
    return sink(q)->results();
  }

  /// \brief Moves query `q`'s accumulated results out (resets its result
  /// buffer, not any operator state). Flushes buffered input first.
  std::vector<Sgt> TakeResults(QueryId q) {
    executor_.Flush();
    return sink(q)->TakeResults();
  }

  /// \brief Like TakeResults, but leaves a partly filled micro-batch
  /// buffered: only what input already delivered moves out, so a caller
  /// that drains often does not move batch boundaries (batch_size > 1).
  std::vector<Sgt> TakeDeliveredResults(QueryId q) {
    return sink(q)->TakeResults();
  }

  std::size_t results_emitted(QueryId q) const {
    return sink(q)->total_emitted();
  }

  /// \brief The (possibly shared) physical root operator of query `q`.
  OpId QueryRoot(QueryId q) const;
  /// @}

  /// \name Sharing introspection
  /// @{

  /// \brief Physical operators alive (instantiated minus removed),
  /// per-query sinks included. Registering the same plan K times yields
  /// NumOperators(1 plan) + K - 1 (each extra registration adds only its
  /// sink); removing a query subtracts exactly the operators only it
  /// referenced.
  std::size_t NumOperators() const { return executor_.NumLiveOps(); }

  /// \brief Queries whose plans currently reference operator `id`
  /// (the sharing refcount); 0 for removed operators. Tests use this to
  /// assert refcounts return to baseline across subscription churn.
  int OperatorRefCount(OpId id) const;

  /// \brief Subtree compilations that resolved to an existing operator —
  /// how much per-edge work the sharing removed. Counts reuse *within* a
  /// registration too (duplicate subtrees of one plan compile once, like
  /// the classic WSCAN dedup), so it is nonzero even with
  /// cross_query_sharing off.
  std::size_t NumSharedSubtrees() const { return shared_subtree_hits_; }

  /// \brief The subset of NumSharedSubtrees() that resolved to an
  /// operator compiled by an *earlier* registration — the cross-query
  /// sharing proper. Always 0 with cross_query_sharing off.
  std::size_t NumCrossQuerySharedSubtrees() const {
    return cross_query_shared_hits_;
  }
  /// @}

  /// \name Metrics (§7.1.1; engine-global, the stream is shared)
  /// @{
  const LatencyRecorder& slide_latencies() const {
    return executor_.slide_latencies();
  }
  std::size_t edges_pushed() const { return executor_.edges_pushed(); }
  std::size_t edges_processed() const { return executor_.edges_processed(); }
  /// @}

  /// \brief Total operator state entries (diagnostics).
  std::size_t StateSize() const { return executor_.StateSize(); }

  /// \brief Resident operator-state bytes (diagnostics). Flat across
  /// add/remove churn cycles: a removed query's state is released, not
  /// tombstoned (tests/subscription_churn_test.cc).
  std::size_t StateBytes() const { return executor_.StateBytes(); }

  /// \brief The runtime executing the registered queries.
  Executor& executor() { return executor_; }
  const Executor& executor() const { return executor_; }

  const EngineOptions& options() const { return options_; }

  /// \brief Human-readable logical plans and shared runtime topology.
  std::string Explain() const;

 private:
  SinkOp* sink(QueryId q) const;

  /// \brief Compiles `node` children-first, consulting the signature
  /// dedup map before instantiating anything. Records per-operator
  /// bookkeeping (signature, children, acquired window partitions) that
  /// RemoveQuery's refcounted teardown consumes.
  Result<OpId> Build(const LogicalOp& node, const Vocabulary& vocab);

  /// \brief Registers engine-side bookkeeping for a newly instantiated
  /// operator (grows the parallel per-OpId tables).
  void RecordOp(OpId id, std::string sig, std::vector<OpId> children,
                std::vector<std::string> window_keys);

  /// \brief Live-attach admission: every WSCAN window slide in `plan`
  /// must be at least the running slide granularity (fixed at Finalize).
  Status CheckLiveAttachable(const LogicalOp& plan) const;

  /// \brief Streams the complete SGQC image (every section, then the
  /// footer) through `writer`; the first write error aborts it.
  Status EncodeCheckpointSections(
      CheckpointWriter* writer, const Vocabulary* vocab,
      const std::vector<std::pair<std::string, std::string>>& extra) const;

  /// \brief Restore body over a parsed reader (validation + adoption).
  Status RestoreFrom(const CheckpointReader& reader, Vocabulary* vocab,
                     std::unordered_map<std::string, std::string>* extra_out);

  /// \brief The state-affecting EngineOptions, as (key, value) pairs —
  /// refused on mismatch at restore.
  std::vector<std::pair<std::string, std::string>> IdentityKeys() const;
  /// \brief Ingest-side options recorded for diagnostics (not refused:
  /// they change how bytes become elements, not what state means).
  std::vector<std::pair<std::string, std::string>> InformationalKeys() const;

  EngineOptions options_;
  Executor executor_;
  /// Canonical-signature dedup of compiled subtrees: one physical
  /// operator per distinct signature, fanned out to every consumer. Each
  /// compiled PATTERN is also keyed under its JoinSignature, which never
  /// equals a signature. Cleared between registrations when
  /// cross_query_sharing is off.
  std::unordered_map<std::string, OpId> subtree_dedup_;
  std::vector<SinkOp*> sinks_;   ///< index == QueryId; null once removed
  std::vector<OpId> roots_;      ///< index == QueryId; invalid once removed
  std::vector<std::string> plan_texts_;  ///< for Explain + checkpoint history
  /// Registration history: whether each QueryId is still attached. The
  /// checkpoint "queries" section stores (plan, live) pairs so Restore can
  /// refuse a snapshot whose removal history diverges (DESIGN.md §10).
  std::vector<bool> query_live_;
  std::size_t live_queries_ = 0;
  /// Ops reachable from each query's sink (the sink included), deduped —
  /// the set whose refcounts RemoveQuery decrements. Cleared on removal.
  std::vector<std::vector<OpId>> query_ops_;
  /// Per-OpId teardown bookkeeping, parallel to the executor's node table:
  /// sharing refcount, canonical signature (dedup-map erasure), compile-
  /// time children (channel unlinking), acquired window partition keys.
  std::vector<int> op_refs_;
  std::vector<std::string> op_sigs_;
  std::vector<std::vector<OpId>> op_children_;
  std::vector<std::vector<std::string>> op_window_keys_;
  std::size_t shared_subtree_hits_ = 0;
  std::size_t cross_query_shared_hits_ = 0;
  /// Operator count at the start of the in-flight AddPlan: dedup hits on
  /// lower ids are cross-registration hits.
  std::size_t ops_before_current_plan_ = 0;
  bool finalized_ = false;

  // --- checkpoint/restore ---
  /// Elements already replayed into a restored snapshot (resume offset).
  std::uint64_t restored_ingested_ = 0;
  std::uint64_t checkpoint_write_ns_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
  /// In-flight background checkpoint write; its status lands in
  /// checkpoint_write_status_ (read only after join).
  std::thread checkpoint_writer_;
  Status checkpoint_write_status_ = Status::OK();
};

}  // namespace sgq

#endif  // SGQ_CORE_ENGINE_H_
