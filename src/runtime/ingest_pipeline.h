// Pipelined ingest (DESIGN.md §6): stream bytes arrive as a ChunkedStream
// (model/stream_io.h — byte-range chunks, in memory or served from a
// file), N parse threads decode the chunks, and an order-restoring merge
// re-serializes the elements, absorbs bounded out-of-order arrival
// through a ReorderBuffer when slack is configured, and stages micro-
// batch N+1 while the execution thread runs batch N through the operator
// topology.
//
// The merge thread is parser 0: it decodes chunks c ≡ 0 (mod N) itself
// and drains the "gutter" segment queues of parser threads 1..N-1 for
// the other chunks, visiting chunks in index order. N = 1 is therefore a
// single ingest thread walking every chunk, with no special case:
//
//     parser 1 ──gutter 1──┐
//        …        …        │  merge = parser 0 (chunk order)
//     parser N-1 ─gutter N-1┘    → slack/batch → full →   exec thread
//                                  ← free                ExecuteOrderedBatch
//
// Hand-off protocol: a fixed pool of batch buffers cycles through two
// bounded SPSC queues (runtime/spsc_queue.h). The `full` queue carries
// ready batches; the `free` queue returns drained buffers, so steady
// state allocates nothing. Backpressure is buffer-pool exhaustion: with
// every buffer queued or in use the merge blocks on `free` until
// execution catches up, and each side's blocked time is recorded
// (ingest_stall_ns: the merge waited on execution; exec_stall_ns:
// execution starved for input — the pipeline is ingest-bound). Gutters
// recycle their segments the same way.
//
// Because the merge restores exact stream order and stages batches at the
// synchronous flush boundaries, the pipeline changes *where* parsing
// happens, never what the operators observe: workers=1 / batch=1 output
// is byte-identical to synchronous Push, everything else keeps the
// runtime's snapshot-equivalence contract. Per-parser blocked/busy time
// lands in IngestStats (parser_stall_ns / parser_busy_ns — busy time is
// the pure tokenize/decode cost, the number parse_tuples_per_sec is
// derived from).
//
// Pinning policy (ExecutorOptions::pin_workers): pool workers own cores
// [pin 0, num_workers); parser p (the merge is parser 0) takes slot
// num_workers + p, so parsing never migrates onto an execution core. The
// execution thread is pinned to slot 0 for the duration of Run and its
// previous affinity is restored on exit. All pins are best-effort.

#ifndef SGQ_RUNTIME_INGEST_PIPELINE_H_
#define SGQ_RUNTIME_INGEST_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "model/sgt.h"
#include "runtime/spsc_queue.h"

namespace sgq {

class ChunkedStream;
class Executor;

/// \brief Counters of one or more pipelined runs (cumulative).
struct IngestStats {
  /// Nanoseconds the merge thread spent blocked on backpressure (every
  /// batch buffer queued or executing). High value = execution-bound.
  uint64_t ingest_stall_ns = 0;
  /// Nanoseconds the execution thread spent starved for a ready batch.
  /// High value = ingest-bound (the parse stage is the bottleneck the
  /// pipeline exists to hide).
  uint64_t exec_stall_ns = 0;
  std::size_t batches = 0;       ///< batches handed across the queue
  std::size_t late_dropped = 0;  ///< late elements dropped by the slack stage
  bool ingest_pinned = false;    ///< the merge thread's pin took

  /// Parse threads of the most recent run, the merge included.
  std::size_t parsers = 0;
  /// Nanoseconds the merge spent blocked on empty gutters (parsers 1..N-1
  /// behind) — the parse-stage analogue of exec_stall_ns one stage up. 0
  /// at one parser: the merge has no gutter to wait on.
  uint64_t merge_stall_ns = 0;
  /// Per parser: nanoseconds blocked on gutter backpressure (the merge,
  /// and transitively execution, not keeping up). Parser 0 is the merge,
  /// which has no gutter, so its entry stays 0 (its backpressure is
  /// ingest_stall_ns).
  std::vector<uint64_t> parser_stall_ns;
  /// Per parser: nanoseconds inside StreamCursor::Next — the pure
  /// parse/decode cost (parse_tuples_per_sec = elements / max busy).
  std::vector<uint64_t> parser_busy_ns;
  /// Nanoseconds spent inside the chunk feeder across all parse threads
  /// (file-backed sources only: pread/page-scan time plus readahead-
  /// window backpressure; 0 for in-memory streams). High value = the run
  /// is I/O-bound or the window is too small.
  uint64_t readahead_stall_ns = 0;
};

/// \brief One pipelined ingest run over an Executor. Construct, Run once,
/// read stats. Executor::RunPipelined wraps this.
class IngestPipeline {
 public:
  explicit IngestPipeline(Executor* executor) : executor_(executor) {}

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// \brief Decodes `stream`'s chunks on `parsers` threads (the merge
  /// thread plus parsers - 1 more), merges them in chunk order into the
  /// batch hand-off, and executes every batch on the calling thread;
  /// returns when the stream is exhausted or failed. Parse errors (and
  /// cross-chunk ordering violations) surface as the returned Status —
  /// elements preceding the error still execute, exactly like a
  /// ChunkWalkCursor on the calling thread. Blocking; the executor is in
  /// a normal between-pushes state afterwards.
  Status Run(const ChunkedStream& stream, std::size_t parsers);

  const IngestStats& stats() const { return stats_; }

 private:
  using Batch = std::vector<Sge>;

  /// \brief Pops ready batches off `full` and executes them on the
  /// calling thread until the queue closes.
  void ExecuteLoop(SpscQueue<Batch>* full, SpscQueue<Batch>* free_buffers);

  Executor* executor_;
  IngestStats stats_;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_INGEST_PIPELINE_H_
