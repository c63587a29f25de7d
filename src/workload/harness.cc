#include "workload/harness.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "baseline/engine.h"
#include "core/reorder_buffer.h"
#include "model/stream_io.h"

namespace sgq {

namespace {

/// \brief Collects the post-run metrics of an engine.
RunMetrics CollectEngineMetrics(const Engine& engine, std::string name,
                                double elapsed_seconds) {
  RunMetrics m;
  m.name = std::move(name);
  m.elapsed_seconds = elapsed_seconds;
  m.edges_processed = engine.edges_processed();
  m.tail_latency_seconds = engine.slide_latencies().Percentile(0.99);
  m.state_entries = engine.executor().StateSize();
  m.state_bytes = engine.executor().StateBytes();
  m.ops_touched = engine.executor().ops_touched();
  m.index_skipped_dispatches = engine.executor().index_skipped_dispatches();
  m.checkpoint_write_ns = engine.checkpoint_write_ns();
  m.checkpoint_bytes = engine.checkpoint_bytes();
  const IngestStats& stats = engine.ingest_stats();
  m.ingest_stall_ns = stats.ingest_stall_ns;
  m.exec_stall_ns = stats.exec_stall_ns;
  m.parsers = stats.parsers;
  m.merge_stall_ns = stats.merge_stall_ns;
  m.parser_stall_ns = stats.parser_stall_ns;
  m.readahead_stall_ns = stats.readahead_stall_ns;
  // The parse-stage critical path is the slowest parser's busy time.
  for (uint64_t busy : stats.parser_busy_ns) {
    m.parse_busy_ns = std::max(m.parse_busy_ns, busy);
  }
  return m;
}

}  // namespace

FileChunkOptions IngestChunking(const RunOptions& options) {
  // The threads that decode chunks: the pipeline's parsers, or the
  // calling thread.
  const std::size_t parsers =
      options.async_ingest
          ? std::max<std::size_t>(options.engine.ingest_parsers, 1)
          : 1;
  FileChunkOptions chunking;
  chunking.allow_disorder = options.engine.ingest_slack > 0;
  chunking.min_chunks = parsers > 1 ? parsers * 2 : 1;
  chunking.readahead_chunks =
      std::max(chunking.readahead_chunks, parsers + 1);
  return chunking;
}

Result<MultiQueryMetrics> Run(const RunSource& source,
                              const std::vector<RunQuery>& queries,
                              Vocabulary* vocab, const RunOptions& options,
                              std::string name) {
  // The chunk source comes first: a binary header interns its dictionary
  // before the queries compile.
  const FileChunkOptions chunking = IngestChunking(options);
  std::unique_ptr<FileChunkSource> chunks;
  if (source.bytes != nullptr) {
    SGQ_ASSIGN_OR_RETURN(
        chunks, MakeChunkedStream(*source.bytes, std::nullopt, vocab,
                                  chunking.allow_disorder,
                                  chunking.min_chunks));
  } else if (source.decoded == nullptr) {
    SGQ_ASSIGN_OR_RETURN(chunks, MakeFileChunkSource(source.path,
                                                     std::nullopt, vocab,
                                                     chunking));
  }
  Engine engine(options.engine);
  for (const RunQuery& q : queries) {
    SGQ_RETURN_NOT_OK((q.plan != nullptr ? engine.AddPlan(*q.plan, *vocab)
                                         : engine.AddQuery(*q.query, *vocab))
                          .status());
  }
  SGQ_RETURN_NOT_OK(engine.Finalize());

  Status status = Status::OK();
  uint64_t sync_parse_ns = 0;
  Stopwatch timer;
  if (chunks == nullptr) {
    engine.PushAll(*source.decoded);
  } else if (options.async_ingest) {
    status = engine.RunPipelined(*chunks);
  } else {
    const Timestamp slack = options.engine.ingest_slack;
    ChunkWalkCursor cursor(*chunks, chunking.allow_disorder);
    ReorderBuffer reorder(slack);
    std::vector<Sge> chunk(1024);
    for (;;) {
      const std::size_t n = cursor.Next(chunk.data(), chunk.size());
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (slack == 0) {
          engine.Push(chunk[i]);
        } else {
          for (const Sge& released : reorder.Offer(chunk[i])) {
            engine.Push(released);
          }
        }
      }
    }
    // Like the pipeline's slack stage, release the held-back tail only
    // when the walk ended cleanly.
    if (slack > 0 && cursor.ok()) {
      for (const Sge& released : reorder.Flush()) engine.Push(released);
    }
    engine.Flush();
    status = cursor.status();
    sync_parse_ns = cursor.busy_ns();
  }
  const double elapsed = timer.ElapsedSeconds();
  SGQ_RETURN_NOT_OK(status);

  MultiQueryMetrics m;
  m.totals = CollectEngineMetrics(engine, std::move(name), elapsed);
  if (chunks != nullptr && !options.async_ingest) {
    m.totals.parse_busy_ns = sync_parse_ns;
    m.totals.readahead_stall_ns = chunks->ReadaheadStallNs();
  }
  m.per_query_results.reserve(engine.num_queries());
  for (std::size_t q = 0; q < engine.num_queries(); ++q) {
    const std::size_t emitted =
        engine.results_emitted(static_cast<QueryId>(q));
    m.per_query_results.push_back(emitted);
    m.totals.results_emitted += emitted;
  }
  m.num_operators = engine.NumOperators();
  m.shared_subtrees = engine.NumSharedSubtrees();
  m.cross_query_shared = engine.NumCrossQuerySharedSubtrees();
  return m;
}

Result<RunMetrics> RunDd(const InputStream& stream,
                         const StreamingGraphQuery& query,
                         const Vocabulary& vocab, std::string name) {
  SGQ_ASSIGN_OR_RETURN(auto engine,
                       baseline::DifferentialEngine::Create(query, vocab));
  Stopwatch timer;
  engine->PushAll(stream);
  RunMetrics m;
  m.name = std::move(name);
  m.elapsed_seconds = timer.ElapsedSeconds();
  m.edges_processed = engine->edges_processed();
  m.tail_latency_seconds = engine->epoch_latencies().Percentile(0.99);
  m.results_emitted = engine->answers_emitted();
  return m;
}

void PrintMetricsHeader(const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("%-24s %14s %16s %12s\n", "config", "tput (edges/s)",
              "p99 slide (ms)", "results");
}

void PrintMetricsRow(const RunMetrics& metrics) {
  std::printf("%-24s %14.0f %16.3f %12zu\n", metrics.name.c_str(),
              metrics.Throughput(), metrics.tail_latency_seconds * 1e3,
              metrics.results_emitted);
}

}  // namespace sgq
