// Benchmark harness (§7.1.1): runs standing queries over a stream on one
// Engine and reports the paper's metrics — sustained throughput
// (edges/second over the labels the queries consume) and the
// 99th-percentile latency of a window slide — next to per-query result
// counts and the engine's sharing counters.

#ifndef SGQ_WORKLOAD_HARNESS_H_
#define SGQ_WORKLOAD_HARNESS_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/engine.h"
#include "model/file_chunk_source.h"
#include "model/sgt.h"
#include "query/rq.h"

namespace sgq {

/// \brief The stream a Run reads. A decoded stream is pushed element by
/// element (Engine::PushAll). Stream bytes — CSV text or SGQB binary,
/// detected from the magic bytes — are decoded inside the timed run
/// through one FileChunkSource: resident for bytes in memory, a bounded
/// pread window for a file, whose peak ingest-buffer memory is
/// O(window · ~256 KB) regardless of file size. Both byte origins decode
/// the same element sequence, so every result and error is identical.
struct RunSource {
  /// \brief An already decoded stream (borrowed).
  static RunSource Decoded(const InputStream& stream) {
    RunSource s;
    s.decoded = &stream;
    return s;
  }
  /// \brief Raw stream bytes (borrowed; must outlive the run).
  static RunSource Bytes(const std::string& bytes) {
    RunSource s;
    s.bytes = &bytes;
    return s;
  }
  /// \brief A stream file, read without materializing it.
  static RunSource File(std::string path) {
    RunSource s;
    s.path = std::move(path);
    return s;
  }

  const InputStream* decoded = nullptr;
  const std::string* bytes = nullptr;
  std::string path;
};

/// \brief One standing query of a Run: an SGQ, compiled through its
/// canonical plan, or an explicit logical plan (the plan-space experiments
/// of §7.4). Converts implicitly from either, so a query list reads
/// `{*query}` or `{*plan_a, *plan_b}`.
struct RunQuery {
  RunQuery(const StreamingGraphQuery& q) : query(&q) {}  // NOLINT
  RunQuery(const LogicalOp& p) : plan(&p) {}             // NOLINT

  const StreamingGraphQuery* query = nullptr;
  const LogicalOp* plan = nullptr;
};

/// \brief How a Run executes.
struct RunOptions {
  /// The hosting engine's configuration.
  EngineOptions engine;
  /// Pipelined ingest for byte and file sources (DESIGN.md §6): decode on
  /// the pipeline's threads (Engine::RunPipelined, engine.ingest_parsers
  /// of them, the merge thread included) while execution runs on the
  /// calling thread, instead of a ChunkWalkCursor on the calling thread
  /// feeding Push. Execution order is unchanged, so results keep the
  /// synchronous path's contract (byte-identical at num_workers=1 /
  /// batch_size=1). A decoded source has nothing to decode and always
  /// pushes inline.
  bool async_ingest = false;
};

/// \brief Chunking of one chunk source under `options` — the same for
/// in-memory bytes and a file: disorder tolerance (ingest_slack > 0), the
/// chunk-count floor (2 × parse threads when the pipeline runs several,
/// so every parser has work even on small inputs; 1 otherwise) and the
/// readahead window (at least parse threads + 1, so every parser can
/// hold a chunk while one more loads). Pass min_chunks / allow_disorder
/// to MakeChunkedStream and the whole struct to MakeFileChunkSource.
FileChunkOptions IngestChunking(const RunOptions& options);

/// \brief Metrics of a Run: the aggregate stream-side metrics plus the
/// per-query result demux and sharing counters.
struct MultiQueryMetrics {
  RunMetrics totals;  ///< results_emitted sums every query's sink
  std::vector<std::size_t> per_query_results;  ///< index == QueryId
  std::size_t num_operators = 0;  ///< physical ops, sinks included
  /// Subtree dedup hits, within-registration reuse included (nonzero
  /// even with cross_query_sharing off — one plan's duplicate subtrees
  /// still compile once).
  std::size_t shared_subtrees = 0;
  /// Dedup hits against an earlier registration's operators — the
  /// cross-query sharing proper; 0 with cross_query_sharing off.
  std::size_t cross_query_shared = 0;
};

/// \brief Registers every query on one Engine, runs `source` through the
/// shared dataflow once, and reports aggregate plus per-query metrics.
/// `options.engine.cross_query_sharing` selects shared vs
/// per-query-private compilation (the bench_multi_query ablation).
///
/// Byte and file sources are built before the queries compile, and decode
/// either on the calling thread — a ChunkWalkCursor feeding Push, through
/// a ReorderBuffer when ingest_slack > 0 — or on the ingest pipeline
/// (`options.async_ingest`). Labels and vertices are interned into
/// `*vocab`; malformed or out-of-order input fails the run with a
/// positioned error. Parse-stage cost lands in RunMetrics (parse_busy_ns
/// / ParseTuplesPerSec), feeder time in readahead_stall_ns.
Result<MultiQueryMetrics> Run(const RunSource& source,
                              const std::vector<RunQuery>& queries,
                              Vocabulary* vocab, const RunOptions& options,
                              std::string name);

/// \brief Runs `query` on the DD-style baseline engine.
Result<RunMetrics> RunDd(const InputStream& stream,
                         const StreamingGraphQuery& query,
                         const Vocabulary& vocab, std::string name);

/// \brief Prints a fixed-width metrics row:
/// name, throughput (edges/s), p99 slide latency (ms), #results.
void PrintMetricsRow(const RunMetrics& metrics);

/// \brief Prints the row header matching PrintMetricsRow.
void PrintMetricsHeader(const std::string& title);

}  // namespace sgq

#endif  // SGQ_WORKLOAD_HARNESS_H_
