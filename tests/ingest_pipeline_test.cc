// Pipelined ingest tests (runtime/ingest_pipeline.h, DESIGN.md §6):
//
//  - the bounded SPSC hand-off queue preserves FIFO order, bounds its
//    occupancy, drains after Close, and moves every element across a real
//    producer/consumer thread pair (the configuration TSan checks);
//  - Engine::RunPipelined over stream bytes at num_workers=1 /
//    batch_size=1 and one parser is byte-identical to synchronous Push,
//    for CSV and SGQB; every other configuration (workers {1,4} × batch
//    {1,64}, format × parsers × workers, deletion-heavy streams, both
//    PATH implementations) is snapshot-equivalent and run-to-run
//    deterministic;
//  - the incremental CSV cursor produces exactly ParseStreamCsv's
//    elements and errors;
//  - the reorder-slack stage folded into the merge matches the
//    synchronous ReorderBuffer path;
//  - pinned pools still cover every index (affinity is best-effort).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/reorder_buffer.h"
#include "model/stream_io.h"
#include "runtime/spsc_queue.h"
#include "runtime/worker_pool.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/harness.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

// ---------------------------------------------------------------------------
// SpscQueue
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, FifoOrderAndCapacityBound) {
  SpscQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.TryPush(int(i)));
  EXPECT_FALSE(queue.TryPush(99));  // full: bounded
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(queue.TryPop(&out));  // empty
}

TEST(SpscQueueTest, CloseDrainsRemainderThenEnds) {
  SpscQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));  // closed to the producer
  int out = 0;
  uint64_t stall = 0;
  EXPECT_TRUE(queue.Pop(&out, &stall));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out, &stall));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out, &stall));  // drained + closed
}

TEST(SpscQueueTest, ConcurrentTransferDeliversEverythingInOrder) {
  // Small capacity forces both backpressure (producer stalls) and
  // starvation (consumer stalls); TSan runs this to vet the hand-off.
  constexpr int kItems = 20000;
  SpscQueue<int> queue(2);
  uint64_t producer_stall = 0;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_TRUE(queue.Push(int(i), &producer_stall));
    }
    queue.Close();
  });
  std::vector<int> received;
  received.reserve(kItems);
  uint64_t consumer_stall = 0;
  int out = 0;
  while (queue.Pop(&out, &consumer_stall)) received.push_back(out);
  producer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
}

// ---------------------------------------------------------------------------
// WorkerPool pinning
// ---------------------------------------------------------------------------

TEST(WorkerPoolPinTest, PinnedPoolCoversEveryIndex) {
  WorkerPoolOptions options;
  options.pin = true;
  WorkerPool pool(4, options);
  for (int wave = 0; wave < 20; ++wave) {
    const std::size_t n = 1 + static_cast<std::size_t>(wave % 7);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  // Affinity is best-effort; the pool never pins more than its spawned
  // workers. After a completed wave every worker ran its loop preamble,
  // so the counter is final.
  EXPECT_LE(pool.pinned_workers(), 3u);
#if defined(__linux__)
  // Where affinity works at all, the spawned workers' pins take. Probe
  // from a scratch thread so the test runner's own affinity stays intact.
  bool probe_pinned = false;
  std::thread probe([&] { probe_pinned = WorkerPool::PinThisThread(0); });
  probe.join();
  if (probe_pinned) {
    EXPECT_EQ(pool.pinned_workers(), 3u);
  }
#endif
}

// ---------------------------------------------------------------------------
// StreamCsvCursor
// ---------------------------------------------------------------------------

TEST(StreamCsvCursorTest, MatchesWholeStreamParseAcrossChunkSizes) {
  const std::string text =
      "# comment\n"
      "u,follows,v,7\n"
      "v,posts,b,10\n"
      "\n"
      "y,follows,u,13\n"
      "u,posts,a,22,-\n"
      "u,likes,b,29,+\n";
  Vocabulary reference_vocab;
  auto reference = ParseStreamCsv(text, &reference_vocab);
  ASSERT_TRUE(reference.ok());
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    Vocabulary vocab;
    StreamCsvCursor cursor(text, &vocab);
    std::vector<Sge> buffer(chunk);
    InputStream parsed;
    for (;;) {
      const std::size_t n = cursor.Next(buffer.data(), buffer.size());
      if (n == 0) break;
      parsed.insert(parsed.end(), buffer.begin(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    ASSERT_EQ(parsed.size(), reference->size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i].src, (*reference)[i].src);
      EXPECT_EQ(parsed[i].trg, (*reference)[i].trg);
      EXPECT_EQ(parsed[i].label, (*reference)[i].label);
      EXPECT_EQ(parsed[i].t, (*reference)[i].t);
      EXPECT_EQ(parsed[i].is_deletion, (*reference)[i].is_deletion);
    }
  }
}

TEST(StreamCsvCursorTest, ReportsErrorsWithLineNumbersAndStops) {
  const std::string text = "u,a,v,1\nu,a,v,notatime\nu,a,v,3\n";
  Vocabulary vocab;
  StreamCsvCursor cursor(text, &vocab);
  Sge buffer[8];
  EXPECT_EQ(cursor.Next(buffer, 8), 1u);  // the good first line
  EXPECT_FALSE(cursor.ok());
  EXPECT_NE(cursor.status().message().find("line 2"), std::string::npos)
      << cursor.status().ToString();
  EXPECT_EQ(cursor.Next(buffer, 8), 0u);  // stays stopped
}

TEST(StreamCsvCursorTest, OrderingStrictUnlessDisorderAllowed) {
  const std::string text = "u,a,v,5\nu,a,w,3\n";
  {
    Vocabulary vocab;
    StreamCsvCursor cursor(text, &vocab);
    Sge buffer[8];
    cursor.Next(buffer, 8);
    EXPECT_FALSE(cursor.ok());
  }
  {
    Vocabulary vocab;
    StreamCsvCursor cursor(text, &vocab, /*allow_disorder=*/true);
    Sge buffer[8];
    EXPECT_EQ(cursor.Next(buffer, 8), 2u);
    EXPECT_TRUE(cursor.ok());
    EXPECT_EQ(buffer[1].t, 3);
  }
}

// ---------------------------------------------------------------------------
// Pipelined-ingest equivalence and determinism
// ---------------------------------------------------------------------------

struct Config {
  const char* query;
  PathImpl path_impl;
};

const Config kConfigs[] = {
    {"Answer(x,z) <- a(x,y), b(y,z)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kDeltaPath},
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kSPath},
};

InputStream DeletionHeavyStream(uint64_t seed, Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 150;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// \brief The synchronous reference: every element through Push.
std::vector<Sgt> RunEngine(const StreamingGraphQuery& query,
                           const Vocabulary& vocab, const InputStream& stream,
                           EngineOptions options) {
  Engine engine(options);
  const bool compiled =
      engine.AddQuery(query, vocab).ok() && engine.Finalize().ok();
  EXPECT_TRUE(compiled);
  if (!compiled) return {};
  engine.PushAll(stream);
  return engine.results(0);
}

/// \brief Runs a query over raw stream bytes through Engine::RunPipelined
/// (options.ingest_parsers parse threads) and returns the result
/// sequence. The vocabulary is pre-populated by the generator, so the
/// parse resolves the reference run's ids.
std::vector<Sgt> RunEnginePipelined(const StreamingGraphQuery& query,
                                    Vocabulary* vocab,
                                    const std::string& bytes,
                                    StreamFormat format,
                                    EngineOptions options) {
  Engine engine(options);
  const bool compiled =
      engine.AddQuery(query, *vocab).ok() && engine.Finalize().ok();
  EXPECT_TRUE(compiled);
  if (!compiled) return {};
  auto chunked = MakeChunkedStream(
      bytes, format, vocab, /*allow_disorder=*/options.ingest_slack > 0,
      /*min_chunks=*/options.ingest_parsers > 1 ? options.ingest_parsers * 2
                                                : 1);
  EXPECT_TRUE(chunked.ok()) << chunked.status().ToString();
  if (!chunked.ok()) return {};
  Status run = engine.RunPipelined(**chunked);
  EXPECT_TRUE(run.ok()) << run.ToString();
  return engine.results(0);
}

class AsyncIngestEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AsyncIngestEquivalenceTest, SnapshotsMatchSynchronousIngest) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 977 + 5;
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(seed, &vocab);
    const std::string csv = FormatStreamCsv(stream, vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;

    EngineOptions reference_options;
    reference_options.path_impl = config.path_impl;
    const std::vector<Sgt> reference =
        RunEngine(*query, vocab, stream, reference_options);

    const std::vector<Timestamp> times = SampleTimes(stream, 6);
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        EngineOptions options;
        options.path_impl = config.path_impl;
        options.num_workers = workers;
        options.batch_size = batch;
        const std::vector<Sgt> async_results = RunEnginePipelined(
            *query, &vocab, csv, StreamFormat::kCsv, options);
        for (Timestamp t : times) {
          ASSERT_EQ(ResultPairsAt(async_results, t),
                    ResultPairsAt(reference, t))
              << config.query << " workers=" << workers
              << " batch=" << batch << " t=" << t << " seed=" << seed;
        }
        // Run-to-run determinism, order included: execution stays on one
        // thread, so the pipeline must not introduce schedule dependence.
        const std::vector<Sgt> again = RunEnginePipelined(
            *query, &vocab, csv, StreamFormat::kCsv, options);
        ASSERT_EQ(async_results.size(), again.size());
        for (std::size_t i = 0; i < again.size(); ++i) {
          ASSERT_TRUE(async_results[i] == again[i])
              << config.query << " workers=" << workers
              << " batch=" << batch << " position " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncIngestEquivalenceTest,
                         ::testing::Range(0, 4));

TEST(AsyncIngestTest, CsvHarnessMatchesSynchronousParse) {
  Vocabulary generator_vocab;
  const InputStream stream = DeletionHeavyStream(23, &generator_vocab);
  const std::string csv = FormatStreamCsv(stream, generator_vocab);
  const char* kQuery = "Answer(x,z) <- a+(x,y), b(y,z)";

  auto run = [&](bool async, std::size_t workers, std::size_t batch) {
    Vocabulary vocab;
    auto query = MakeQuery(kQuery, WindowSpec(12, 3), &vocab);
    EXPECT_TRUE(query.ok());
    RunOptions options;
    options.engine.num_workers = workers;
    options.engine.batch_size = batch;
    options.async_ingest = async;
    auto metrics = sgq::Run(RunSource::Bytes(csv), {*query}, &vocab,
                            options, "csv");
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return metrics.ok() ? metrics->totals.results_emitted : std::size_t(0);
  };
  const std::size_t expected = run(false, 1, 1);
  EXPECT_EQ(run(true, 1, 1), expected);
  EXPECT_EQ(run(true, 1, 64), expected);
  EXPECT_EQ(run(true, 4, 64), expected);
}

TEST(AsyncIngestTest, TextHarnessCoversBothFormatsAndParserCounts) {
  Vocabulary generator_vocab;
  const InputStream stream = DeletionHeavyStream(29, &generator_vocab);
  const std::string csv = FormatStreamCsv(stream, generator_vocab);
  auto binary = FormatStreamBinary(stream, generator_vocab);
  ASSERT_TRUE(binary.ok());
  const char* kQuery = "Answer(x,z) <- a+(x,y), b(y,z)";

  // Run detects each buffer's format from its magic bytes.
  auto run = [&](const std::string& bytes, bool async, std::size_t parsers) {
    Vocabulary vocab;
    auto query = MakeQuery(kQuery, WindowSpec(12, 3), &vocab);
    EXPECT_TRUE(query.ok());
    RunOptions options;
    options.engine.ingest_parsers = parsers;
    options.engine.batch_size = 16;
    options.async_ingest = async;
    auto result = sgq::Run(RunSource::Bytes(bytes), {*query}, &vocab,
                           options, "text");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return std::size_t(0);
    const RunMetrics& metrics = result->totals;
    // Every placement measures the parse stage.
    EXPECT_GT(metrics.parse_busy_ns, 0u);
    EXPECT_GT(metrics.ParseTuplesPerSec(), 0.0);
    if (async) {
      EXPECT_EQ(metrics.parsers, parsers);
    }
    return metrics.results_emitted;
  };
  const std::size_t expected = run(csv, false, 1);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(run(csv, true, 4), expected);
  EXPECT_EQ(run(*binary, false, 1), expected);
  EXPECT_EQ(run(*binary, true, 1), expected);
  EXPECT_EQ(run(*binary, true, 4), expected);
}

// ---------------------------------------------------------------------------
// Parse stage: parsers and the order-restoring merge (RunPipelined)
// ---------------------------------------------------------------------------

TEST(ShardedParseTest, SingleParserByteIdenticalToClassicPipeline) {
  // parsers=1 is the pipeline's N = 1 case — the merge thread decodes
  // every chunk itself — with the same element sequence as synchronous
  // Push, so at workers=1 / batch=1 the results are byte-identical to
  // that reference, for CSV and SGQB bytes alike.
  for (const uint64_t seed : {uint64_t{11}, uint64_t{59}}) {
    for (const Config& config : kConfigs) {
      Vocabulary vocab;
      const InputStream stream = DeletionHeavyStream(seed, &vocab);
      const std::string csv = FormatStreamCsv(stream, vocab);
      auto binary = FormatStreamBinary(stream, vocab);
      ASSERT_TRUE(binary.ok());
      auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
      ASSERT_TRUE(query.ok()) << config.query;

      EngineOptions options;
      options.path_impl = config.path_impl;
      options.ingest_parsers = 1;
      const std::vector<Sgt> expected =
          RunEngine(*query, vocab, stream, options);
      for (const bool use_binary : {false, true}) {
        const std::vector<Sgt> actual = RunEnginePipelined(
            *query, &vocab, use_binary ? *binary : csv,
            use_binary ? StreamFormat::kBinary : StreamFormat::kCsv, options);
        ASSERT_EQ(expected.size(), actual.size())
            << config.query << " seed=" << seed
            << " format=" << (use_binary ? "binary" : "csv");
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_TRUE(expected[i] == actual[i])
              << config.query << " seed=" << seed
              << " format=" << (use_binary ? "binary" : "csv")
              << " position " << i;
        }
      }
    }
  }
}

class ShardedParseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedParseEquivalenceTest, MatrixMatchesSynchronousIngest) {
  // parsers {1,4} × workers {1,4} × formats {csv, binary} over a
  // deletion-heavy stream: snapshot-equivalent to the synchronous run and
  // run-to-run deterministic. (The vocabulary is pre-populated by the
  // generator, so even concurrent CSV interning resolves to fixed ids
  // here; fresh-vocabulary multi-parser CSV runs are only name-level
  // deterministic — see DESIGN.md §6.) Under TSan this is the gutter /
  // order-restoring-merge stress: 4 parsers × small batches force heavy
  // segment hand-off traffic.
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 1319 + 7;
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(seed, &vocab);
    const std::string csv = FormatStreamCsv(stream, vocab);
    auto binary = FormatStreamBinary(stream, vocab);
    ASSERT_TRUE(binary.ok());
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;

    EngineOptions reference_options;
    reference_options.path_impl = config.path_impl;
    const std::vector<Sgt> reference =
        RunEngine(*query, vocab, stream, reference_options);
    const std::vector<Timestamp> times = SampleTimes(stream, 6);

    for (const bool use_binary : {false, true}) {
      for (std::size_t parsers : {std::size_t{1}, std::size_t{4}}) {
        for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
          EngineOptions options;
          options.path_impl = config.path_impl;
          options.num_workers = workers;
          options.batch_size = 16;
          options.ingest_parsers = parsers;
          const std::vector<Sgt> results = RunEnginePipelined(
              *query, &vocab, use_binary ? *binary : csv,
              use_binary ? StreamFormat::kBinary : StreamFormat::kCsv,
              options);
          for (Timestamp t : times) {
            ASSERT_EQ(ResultPairsAt(results, t), ResultPairsAt(reference, t))
                << config.query << " format="
                << (use_binary ? "binary" : "csv") << " parsers=" << parsers
                << " workers=" << workers << " t=" << t << " seed=" << seed;
          }
          const std::vector<Sgt> again = RunEnginePipelined(
              *query, &vocab, use_binary ? *binary : csv,
              use_binary ? StreamFormat::kBinary : StreamFormat::kCsv,
              options);
          ASSERT_EQ(results.size(), again.size());
          for (std::size_t i = 0; i < again.size(); ++i) {
            ASSERT_TRUE(results[i] == again[i])
                << config.query << " parsers=" << parsers
                << " workers=" << workers << " position " << i;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedParseEquivalenceTest,
                         ::testing::Range(0, 2));

TEST(ShardedParseTest, ParseErrorsSurfaceWithGlobalPosition) {
  // A malformed line deep in the stream must fail the sharded run with
  // the same global line number the sequential parse reports, no matter
  // which parser owns the chunk.
  std::string csv;
  for (int i = 0; i < 400; ++i) {
    csv += "a,edge,b," + std::to_string(i) + "\n";
  }
  csv += "a,edge,b,notatime\n";  // line 401
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- edge(x,y)", WindowSpec(12, 3),
                         &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.ingest_parsers = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto chunked = MakeChunkedStream(csv, StreamFormat::kCsv, &vocab, false,
                                   /*min_chunks=*/8);
  ASSERT_TRUE(chunked.ok());
  Status run = engine.RunPipelined(**chunked);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.message().find("line 401"), std::string::npos)
      << run.ToString();
}

TEST(ShardedParseTest, CrossChunkDisorderRejected) {
  // Timestamps sorted within every chunk but decreasing across one chunk
  // boundary must be caught by the merge's boundary check. Descending
  // blocks of constant timestamps make *every* possible boundary (chunk
  // splits always land on newline edges) either inside a block (ordered)
  // or at a block edge (decreasing), so the error fires regardless of
  // where MakeChunkedStream cuts — as long as a cut separates two blocks.
  std::string csv;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 50; ++i) {
      csv += "a,edge,b," + std::to_string(100 - block * 10) + "\n";
    }
  }
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- edge(x,y)", WindowSpec(12, 3),
                         &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.ingest_parsers = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto chunked = MakeChunkedStream(csv, StreamFormat::kCsv, &vocab, false,
                                   /*min_chunks=*/8);
  ASSERT_TRUE(chunked.ok());
  ASSERT_GE((*chunked)->NumChunks(), 2u);
  Status run = engine.RunPipelined(**chunked);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.message().find("non-decreasing"), std::string::npos)
      << run.ToString();
}

TEST(ShardedParseTest, StatsReportPerParserAccounting) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(71, &vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  for (std::size_t parsers : {std::size_t{1}, std::size_t{4}}) {
    EngineOptions options;
    options.ingest_parsers = parsers;
    options.batch_size = 16;
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    auto chunked =
        MakeChunkedStream(csv, StreamFormat::kCsv, &vocab, false, 8);
    ASSERT_TRUE(chunked.ok());
    ASSERT_TRUE(engine.RunPipelined(**chunked).ok());
    const IngestStats& stats = engine.ingest_stats();
    EXPECT_EQ(stats.parsers, parsers);
    ASSERT_EQ(stats.parser_stall_ns.size(), parsers);
    ASSERT_EQ(stats.parser_busy_ns.size(), parsers);
    uint64_t total_busy = 0;
    for (uint64_t busy : stats.parser_busy_ns) total_busy += busy;
    EXPECT_GT(total_busy, 0u) << "parsers=" << parsers;
    EXPECT_GT(stats.batches, 0u) << "parsers=" << parsers;
    if (parsers == 1) {
      // The merge is parser 0 and decodes every chunk itself: it never
      // waits on a gutter, in either role.
      EXPECT_EQ(stats.parser_stall_ns[0], 0u);
      EXPECT_EQ(stats.merge_stall_ns, 0u);
    }
  }
}

TEST(AsyncIngestTest, CsvHarnessSurfacesParseErrors) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  const std::string bad = "u,a,v,1\nbroken line\n";
  for (const bool async : {false, true}) {
    RunOptions options;
    options.async_ingest = async;
    auto metrics =
        sgq::Run(RunSource::Bytes(bad), {*query}, &vocab, options, "bad");
    ASSERT_FALSE(metrics.ok()) << "async=" << async;
    EXPECT_NE(metrics.status().message().find("line 2"), std::string::npos)
        << metrics.status().ToString();
  }
}

TEST(AsyncIngestTest, ReorderSlackFoldedIntoPipelineMatchesSyncPath) {
  // Bounded-disorder input: swap adjacent timestamp pairs within slack 4.
  Vocabulary vocab;
  InputStream ordered = DeletionHeavyStream(31, &vocab);
  InputStream disordered = ordered;
  for (std::size_t i = 0; i + 1 < disordered.size(); i += 2) {
    std::swap(disordered[i], disordered[i + 1]);
  }
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  const Timestamp kSlack = 8;

  // Synchronous reference: ReorderBuffer in front of per-element pushes.
  EngineOptions sync_options;
  Engine sync_engine(sync_options);
  ASSERT_TRUE(sync_engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(sync_engine.Finalize().ok());
  ReorderBuffer buffer(kSlack);
  std::size_t sync_late = 0;
  buffer.OnLate([&](const Sge&) { ++sync_late; });
  for (const Sge& sge : disordered) {
    for (const Sge& released : buffer.Offer(sge)) sync_engine.Push(released);
  }
  for (const Sge& released : buffer.Flush()) sync_engine.Push(released);
  sync_engine.Flush();
  const std::vector<Sgt> expected = sync_engine.results(0);

  // Pipelined: the disordered stream's CSV bytes, chunked with the order
  // check lifted; the slack stage runs on the merge thread.
  const std::string csv = FormatStreamCsv(disordered, vocab);
  EngineOptions async_options;
  async_options.ingest_slack = kSlack;
  Engine async_engine(async_options);
  ASSERT_TRUE(async_engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(async_engine.Finalize().ok());
  auto chunked = MakeChunkedStream(csv, StreamFormat::kCsv, &vocab,
                                   /*allow_disorder=*/true, /*min_chunks=*/1);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  ASSERT_TRUE(async_engine.RunPipelined(**chunked).ok());
  const std::vector<Sgt> actual = async_engine.results(0);
  EXPECT_EQ(async_engine.ingest_stats().late_dropped, sync_late);

  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << "position " << i;
  }
}

TEST(AsyncIngestTest, StatsAccumulateAndPinnedRunsStayCorrect) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(47, &vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.pin_workers = true;  // best-effort; must never change results
  options.num_workers = 2;
  options.batch_size = 16;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto chunked = MakeChunkedStream(csv, StreamFormat::kCsv, &vocab, false, 1);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  ASSERT_TRUE(engine.RunPipelined(**chunked).ok());
  const IngestStats& stats = engine.ingest_stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.late_dropped, 0u);

  EngineOptions unpinned = options;
  unpinned.pin_workers = false;
  const std::vector<Sgt> expected = RunEnginePipelined(
      *query, &vocab, csv, StreamFormat::kCsv, unpinned);
  const std::vector<Sgt>& actual = engine.results(0);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << "position " << i;
  }
}

}  // namespace
}  // namespace sgq
