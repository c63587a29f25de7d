#include "workload/harness.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "algebra/translate.h"
#include "baseline/engine.h"
#include "core/reorder_buffer.h"
#include "model/stream_io.h"

namespace sgq {

namespace {

/// \brief Collects the post-run metrics every SGA harness entry reports.
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

Result<RunMetrics> RunSga(const InputStream& stream,
                          const StreamingGraphQuery& query,
                          const Vocabulary& vocab, EngineOptions options,
                          std::string name) {
  SGQ_ASSIGN_OR_RETURN(auto qp,
                       QueryProcessor::FromQuery(query, vocab, options));
  Stopwatch timer;
  qp->PushAll(stream);
  RunMetrics m = CollectEngineMetrics(qp->engine(), std::move(name),
                                      timer.ElapsedSeconds());
  m.results_emitted = qp->results_emitted();
  return m;
}

Result<RunMetrics> RunSgaPlan(const InputStream& stream,
                              const LogicalOp& plan, const Vocabulary& vocab,
                              EngineOptions options, std::string name) {
  SGQ_ASSIGN_OR_RETURN(auto qp,
                       QueryProcessor::Compile(plan, vocab, options));
  Stopwatch timer;
  qp->PushAll(stream);
  RunMetrics m = CollectEngineMetrics(qp->engine(), std::move(name),
                                      timer.ElapsedSeconds());
  m.results_emitted = qp->results_emitted();
  return m;
}

FileChunkOptions IngestChunking(const EngineOptions& options) {
  // The threads that decode chunks: the pipeline's parsers, or the
  // calling thread.
  const std::size_t parsers =
      options.async_ingest ? std::max<std::size_t>(options.ingest_parsers, 1)
                           : 1;
  FileChunkOptions chunking;
  chunking.allow_disorder = options.ingest_slack > 0;
  chunking.min_chunks = parsers > 1 ? parsers * 2 : 1;
  chunking.readahead_chunks =
      std::max(chunking.readahead_chunks, parsers + 1);
  return chunking;
}

namespace {

/// \brief The body RunSgaText and RunSgaFile share once each has built
/// its source: the pipeline when async_ingest is set, a ChunkWalkCursor
/// pump on the calling thread otherwise.
Result<RunMetrics> RunSgaChunks(const ChunkedStream& source,
                                const StreamingGraphQuery& query,
                                const Vocabulary& vocab,
                                const EngineOptions& options,
                                std::string name) {
  SGQ_ASSIGN_OR_RETURN(auto qp,
                       QueryProcessor::FromQuery(query, vocab, options));
  Status parse_status = Status::OK();
  uint64_t sync_parse_ns = 0;
  Stopwatch timer;
  if (options.async_ingest) {
    parse_status = qp->engine().RunPipelined(source);
  } else {
    const bool slack = options.ingest_slack > 0;
    ChunkWalkCursor cursor(source, /*allow_disorder=*/slack);
    ReorderBuffer reorder(options.ingest_slack);
    std::vector<Sge> chunk(1024);
    for (;;) {
      const std::size_t n = cursor.Next(chunk.data(), chunk.size());
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (!slack) {
          qp->Push(chunk[i]);
        } else {
          for (const Sge& released : reorder.Offer(chunk[i])) {
            qp->Push(released);
          }
        }
      }
    }
    // Like the pipeline's slack stage, release the held-back tail only
    // when the walk ended cleanly.
    if (slack && cursor.ok()) {
      for (const Sge& released : reorder.Flush()) qp->Push(released);
    }
    qp->Flush();
    parse_status = cursor.status();
    sync_parse_ns = cursor.busy_ns();
  }
  const double elapsed = timer.ElapsedSeconds();
  SGQ_RETURN_NOT_OK(parse_status);
  RunMetrics m =
      CollectEngineMetrics(qp->engine(), std::move(name), elapsed);
  if (!options.async_ingest) {
    m.parse_busy_ns = sync_parse_ns;
    m.readahead_stall_ns = source.ReadaheadStallNs();
  }
  m.results_emitted = qp->results_emitted();
  return m;
}

}  // namespace

Result<RunMetrics> RunSgaText(const std::string& bytes,
                              const StreamingGraphQuery& query,
                              Vocabulary* vocab, EngineOptions options,
                              std::string name) {
  const FileChunkOptions chunking = IngestChunking(options);
  SGQ_ASSIGN_OR_RETURN(
      auto source,
      MakeChunkedStream(bytes, std::nullopt, vocab, chunking.allow_disorder,
                        chunking.min_chunks));
  return RunSgaChunks(*source, query, *vocab, options, std::move(name));
}

Result<RunMetrics> RunSgaFile(const std::string& path,
                              const StreamingGraphQuery& query,
                              Vocabulary* vocab, EngineOptions options,
                              std::string name) {
  SGQ_ASSIGN_OR_RETURN(
      auto source, MakeFileChunkSource(path, std::nullopt, vocab,
                                       IngestChunking(options)));
  return RunSgaChunks(*source, query, *vocab, options, std::move(name));
}

Result<MultiQueryMetrics> RunMultiSgaPlans(
    const InputStream& stream, const std::vector<const LogicalOp*>& plans,
    const Vocabulary& vocab, EngineOptions options, std::string name) {
  Engine engine(options);
  for (const LogicalOp* plan : plans) {
    SGQ_RETURN_NOT_OK(engine.AddPlan(*plan, vocab).status());
  }
  SGQ_RETURN_NOT_OK(engine.Finalize());
  Stopwatch timer;
  engine.PushAll(stream);
  MultiQueryMetrics m;
  m.totals = CollectEngineMetrics(engine, std::move(name),
                                  timer.ElapsedSeconds());
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

Result<MultiQueryMetrics> RunMultiSga(
    const InputStream& stream,
    const std::vector<StreamingGraphQuery>& queries, const Vocabulary& vocab,
    EngineOptions options, std::string name) {
  std::vector<LogicalPlan> plans;
  std::vector<const LogicalOp*> plan_ptrs;
  plans.reserve(queries.size());
  plan_ptrs.reserve(queries.size());
  for (const StreamingGraphQuery& query : queries) {
    SGQ_ASSIGN_OR_RETURN(LogicalPlan plan,
                         TranslateToCanonicalPlan(query, vocab));
    plan_ptrs.push_back(plan.get());
    plans.push_back(std::move(plan));
  }
  return RunMultiSgaPlans(stream, plan_ptrs, vocab, std::move(options),
                          std::move(name));
}

Result<RunMetrics> RunSgaCheckpointKill(const InputStream& stream,
                                        const StreamingGraphQuery& query,
                                        const Vocabulary& vocab,
                                        EngineOptions options,
                                        const std::string& checkpoint_path,
                                        std::size_t checkpoint_at,
                                        std::size_t kill_at,
                                        std::string name,
                                        std::vector<Sgt>* results_out) {
  checkpoint_at = std::min(checkpoint_at, stream.size());
  kill_at = std::min(std::max(kill_at, checkpoint_at), stream.size());

  // Phase 1: run to the snapshot point, checkpoint, keep going, crash.
  // The doomed engine goes out of scope without Flush() — everything it
  // did after the snapshot is discarded, exactly like a SIGKILL.
  std::uint64_t checkpoint_write_ns = 0;
  std::uint64_t checkpoint_bytes = 0;
  {
    SGQ_ASSIGN_OR_RETURN(auto doomed,
                         QueryProcessor::FromQuery(query, vocab, options));
    for (std::size_t i = 0; i < checkpoint_at; ++i) doomed->Push(stream[i]);
    SGQ_RETURN_NOT_OK(doomed->engine().Checkpoint(checkpoint_path, &vocab));
    SGQ_RETURN_NOT_OK(doomed->engine().WaitForCheckpoint());
    checkpoint_write_ns = doomed->engine().checkpoint_write_ns();
    checkpoint_bytes = doomed->engine().checkpoint_bytes();
    for (std::size_t i = checkpoint_at; i < kill_at; ++i) {
      doomed->Push(stream[i]);
    }
  }

  // Phase 2: fresh engine, restore, resume from where the snapshot says
  // the stream stood, and run the remainder to completion.
  SGQ_ASSIGN_OR_RETURN(auto qp,
                       QueryProcessor::FromQuery(query, vocab, options));
  Stopwatch timer;
  SGQ_RETURN_NOT_OK(qp->engine().Restore(checkpoint_path));
  const std::uint64_t resume_from = qp->engine().ingested();
  for (std::uint64_t i = resume_from; i < stream.size(); ++i) {
    qp->Push(stream[i]);
  }
  qp->Flush();
  RunMetrics m = CollectEngineMetrics(qp->engine(), std::move(name),
                                      timer.ElapsedSeconds());
  // The restored engine never checkpointed; report the snapshot the run
  // actually took (phase 1) so the row carries its cost and size.
  m.checkpoint_write_ns = checkpoint_write_ns;
  m.checkpoint_bytes = checkpoint_bytes;
  m.results_emitted = qp->results_emitted();
  if (results_out != nullptr) *results_out = qp->results();
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
