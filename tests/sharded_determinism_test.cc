// Determinism and equivalence tests for sharded multi-worker execution
// (runtime/shard.h, DESIGN.md §2.4):
//
//  - num_workers = 1 is byte-identical to the default engine, and its
//    waves — the one-instance case of the sharded exchange — keep frozen
//    result streams where several scans feed one port;
//  - num_workers > 1 is snapshot-equivalent to num_workers = 1 at every
//    sampled instant, across deletion-heavy streams, both PATH
//    implementations, and batch sizes {1, 64};
//  - repeated runs at the same worker count produce byte-identical result
//    streams (the shard-order merge is deterministic, not
//    schedule-dependent);
//  - the worker pool and shard-hash primitives behave as specified.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "runtime/shard.h"
#include "runtime/worker_pool.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/plan_gallery.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, CoversEveryIndexAcrossRepeatedWaves) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  for (int wave = 0; wave < 100; ++wave) {
    const std::size_t n = 1 + static_cast<std::size_t>(wave % 13);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "wave " << wave << " index " << i;
    }
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  std::size_t sum = 0;
  pool.ParallelFor(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

// ---------------------------------------------------------------------------
// Shard hashing
// ---------------------------------------------------------------------------

TEST(ShardHashTest, StableAndInRange) {
  for (VertexId v = 0; v < 500; ++v) {
    for (std::size_t n : {2u, 3u, 8u}) {
      const ShardId s = ShardOfVertex(v, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, ShardOfVertex(v, n));  // stable
      const ShardId e = ShardOfEdge(v, v + 1, n);
      EXPECT_LT(e, n);
      EXPECT_EQ(e, ShardOfEdge(v, v + 1, n));
    }
  }
}

TEST(ShardHashTest, EdgeShardIgnoresNothingButEndpoints) {
  // All shards must be reachable (sanity against a degenerate mixer).
  std::set<ShardId> seen;
  for (VertexId v = 0; v < 64; ++v) seen.insert(ShardOfEdge(v, v * 7, 8));
  EXPECT_EQ(seen.size(), 8u);
}

// ---------------------------------------------------------------------------
// Sharded engine equivalence
// ---------------------------------------------------------------------------

struct Config {
  const char* query;
  PathImpl path_impl;
};

const Config kConfigs[] = {
    {"Answer(x,z) <- a(x,y), b(y,z)", PathImpl::kSPath},
    {"Answer(x,w) <- a(x,y), b(y,z), c(z,w)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kSPath},
    {"Answer(x,y) <- a+(x,y)", PathImpl::kDeltaPath},
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kSPath},
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kDeltaPath},
    // Two store-backed ports on one label: the shards share one partition
    // per port, and the two stay distinct.
    {"Answer(x,w) <- a(x,y), b(y,z), b(z,w)", PathImpl::kSPath},
};

InputStream DeletionHeavyStream(uint64_t seed, Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 150;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;  // deletion-heavy: exercises coordination
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

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

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedEquivalenceTest, SnapshotsMatchSingleWorkerAndOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 131 + 17;
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(seed, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;

    EngineOptions reference_options;
    reference_options.path_impl = config.path_impl;
    const std::vector<Sgt> reference =
        RunEngine(*query, vocab, stream, reference_options);

    const std::vector<Timestamp> times = SampleTimes(stream, 8);
    for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        EngineOptions options;
        options.path_impl = config.path_impl;
        options.num_workers = workers;
        options.batch_size = batch;
        const std::vector<Sgt> sharded = RunEngine(*query, vocab, stream, options);
        for (Timestamp t : times) {
          ASSERT_EQ(ResultPairsAt(sharded, t), ResultPairsAt(reference, t))
              << config.query << " workers=" << workers
              << " batch=" << batch << " t=" << t << " seed=" << seed;
        }
      }
    }
    // The single-worker reference itself satisfies snapshot reducibility
    // against the one-time oracle at the final instant.
    if (!stream.empty()) {
      const Timestamp final_t = stream.back().t;
      EXPECT_EQ(ResultPairsAt(reference, final_t),
                OraclePairsAt(stream, *query, vocab, final_t))
          << config.query << " seed=" << seed;
    }
  }
}

TEST_P(ShardedEquivalenceTest, MultiInputPathPlansMatchSingleWorker) {
  // Q4's plans put PATH operators over several inputs — P1 is (a.b.c)+
  // over three scans, P2 and P3 over a scan and a join. The inputs merge
  // on the PATH's one port, so a wave's batch mixes labels and deletions,
  // and the driver writes all of it before the shards run it.
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 131 + 17;
  for (const PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(seed, &vocab);
    const std::vector<Timestamp> times = SampleTimes(stream, 8);
    for (const auto& [name, plan] :
         Q4Plans(&vocab, "a", "b", "c", WindowSpec(12, 3))) {
      auto run = [&](std::size_t workers, std::size_t batch) {
        EngineOptions options;
        options.path_impl = impl;
        options.num_workers = workers;
        options.batch_size = batch;
        Engine engine(options);
        const bool compiled =
            engine.AddPlan(*plan, vocab).ok() && engine.Finalize().ok();
        EXPECT_TRUE(compiled) << name;
        if (!compiled) return std::vector<Sgt>{};
        engine.PushAll(stream);
        return engine.results(0);
      };
      const std::vector<Sgt> reference = run(1, 1);
      for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
        for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
          const std::vector<Sgt> sharded = run(workers, batch);
          for (Timestamp t : times) {
            ASSERT_EQ(ResultPairsAt(sharded, t), ResultPairsAt(reference, t))
                << name << " workers=" << workers << " batch=" << batch
                << " t=" << t << " seed=" << seed;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalenceTest,
                         ::testing::Range(0, 6));

struct FrozenPlanRun {
  uint64_t seed;
  bool deletions;        ///< deletion_probability 0.2, else 0
  std::size_t plan;      ///< index into Q4Plans: SGA, P1, P2, P3
  std::size_t batch;
  std::size_t results;
  uint64_t fingerprint;  ///< testing_util::Fingerprint of CanonicalText
};

// Frozen one-worker result streams of Q4's plans at batch sizes above 1.
// P1's three scans feed its PATH's one port, so a timestamp group reaches
// that port from several sources, and the P1 rows pin the order one
// worker delivers it in: each sge of the group to its single-instance
// sources in posting order. Running each source's sges of the group
// together — the order multi-instance sources run in — changes 8 of the
// P1 streams. Q4's plans hold no UNION.
const FrozenPlanRun kFrozenQ4Runs[] = {
    {3, false, 0, 7, 72, 0x9037e7394509987cull},
    {3, false, 0, 64, 72, 0x9037e7394509987cull},
    {3, false, 1, 7, 69, 0x412a202647399aa0ull},
    {3, false, 1, 64, 69, 0x412a202647399aa0ull},
    {3, false, 2, 7, 69, 0xf32858ada75d9e9eull},
    {3, false, 2, 64, 69, 0xc0dd4428cbef2c16ull},
    {3, false, 3, 7, 71, 0xd964b8583f15e885ull},
    {3, false, 3, 64, 71, 0xd964b8583f15e885ull},
    {3, true, 0, 7, 44, 0x9c5cffb3d048f7e8ull},
    {3, true, 0, 64, 44, 0x9c5cffb3d048f7e8ull},
    {3, true, 1, 7, 43, 0x2479377e3ed9ed6dull},
    {3, true, 1, 64, 43, 0x2479377e3ed9ed6dull},
    {3, true, 2, 7, 43, 0x8bf1b4086033da66ull},
    {3, true, 2, 64, 43, 0x8bf1b4086033da66ull},
    {3, true, 3, 7, 43, 0x7828170593f04895ull},
    {3, true, 3, 64, 43, 0x7828170593f04895ull},
    {41, false, 0, 7, 40, 0x5902bd78a60d796cull},
    {41, false, 0, 64, 40, 0x5902bd78a60d796cull},
    {41, false, 1, 7, 41, 0x3b5c3f7662ce6f24ull},
    {41, false, 1, 64, 41, 0x3b5c3f7662ce6f24ull},
    {41, false, 2, 7, 40, 0x038aee9529346e30ull},
    {41, false, 2, 64, 40, 0x038aee9529346e30ull},
    {41, false, 3, 7, 40, 0x2b29cc8c2acf5978ull},
    {41, false, 3, 64, 40, 0x2b29cc8c2acf5978ull},
    {41, true, 0, 7, 20, 0x7bc629154a102af4ull},
    {41, true, 0, 64, 20, 0x7bc629154a102af4ull},
    {41, true, 1, 7, 20, 0xc7ffdab0a92efe48ull},
    {41, true, 1, 64, 20, 0xc7ffdab0a92efe48ull},
    {41, true, 2, 7, 20, 0x80b15ea88caa15b4ull},
    {41, true, 2, 64, 20, 0x80b15ea88caa15b4ull},
    {41, true, 3, 7, 20, 0xf3eec96c6fc37638ull},
    {41, true, 3, 64, 20, 0xf3eec96c6fc37638ull},
    {99, false, 0, 7, 76, 0x32a79a1908245627ull},
    {99, false, 0, 64, 76, 0xe8659710f18287c7ull},
    {99, false, 1, 7, 71, 0x34d92be4c65505feull},
    {99, false, 1, 64, 71, 0x34d92be4c65505feull},
    {99, false, 2, 7, 71, 0xca96eacfb4984a2eull},
    {99, false, 2, 64, 71, 0x583a6d9fdb26b782ull},
    {99, false, 3, 7, 71, 0xefe11cd702cde56dull},
    {99, false, 3, 64, 71, 0xefe11cd702cde56dull},
    {99, true, 0, 7, 34, 0x429f23f93b684747ull},
    {99, true, 0, 64, 34, 0x429f23f93b684747ull},
    {99, true, 1, 7, 34, 0xb42b2c9f162aaae5ull},
    {99, true, 1, 64, 34, 0xb42b2c9f162aaae5ull},
    {99, true, 2, 7, 34, 0xa8e4f3955544c472ull},
    {99, true, 2, 64, 34, 0xa8e4f3955544c472ull},
    {99, true, 3, 7, 34, 0x48c6035f4d177d5full},
    {99, true, 3, 64, 34, 0x48c6035f4d177d5full},
};

TEST(SingleWorkerWaveTest, Q4PlansMatchFrozenStreams) {
  for (const FrozenPlanRun& frozen : kFrozenQ4Runs) {
    Vocabulary vocab;
    RandomStreamOptions opt;
    opt.seed = frozen.seed;
    opt.num_vertices = 8;
    opt.num_labels = 3;
    opt.num_edges = 400;
    opt.max_gap = 2;
    opt.deletion_probability = frozen.deletions ? 0.2 : 0.0;
    const auto stream = GenerateRandomStream(opt, &vocab);
    ASSERT_TRUE(stream.ok());
    const auto plans = Q4Plans(&vocab, "a", "b", "c", WindowSpec(12, 3));
    ASSERT_LT(frozen.plan, plans.size());
    const auto& [name, plan] = plans[frozen.plan];
    EngineOptions options;
    options.batch_size = frozen.batch;
    Engine engine(options);
    ASSERT_TRUE(engine.AddPlan(*plan, vocab).ok() && engine.Finalize().ok())
        << name;
    engine.PushAll(*stream);
    const std::vector<Sgt>& results = engine.results(0);
    const std::string context = name + " seed=" + std::to_string(frozen.seed) +
                                " deletions=" +
                                std::to_string(frozen.deletions) +
                                " batch=" + std::to_string(frozen.batch);
    EXPECT_EQ(results.size(), frozen.results) << context;
    EXPECT_EQ(testing_util::Fingerprint(testing_util::CanonicalText(results)),
              frozen.fingerprint)
        << context;
  }
}

TEST(ShardedDeterminismTest, RepeatedRunsAreByteIdentical) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(99, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      EngineOptions options;
      options.path_impl = config.path_impl;
      options.num_workers = 4;
      options.batch_size = batch;
      const std::vector<Sgt> first = RunEngine(*query, vocab, stream, options);
      const std::vector<Sgt> second = RunEngine(*query, vocab, stream, options);
      // Full structural equality, order included: the merge is
      // deterministic, not thread-schedule-dependent.
      ASSERT_EQ(first.size(), second.size()) << config.query;
      for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(first[i] == second[i])
            << config.query << " batch=" << batch << " position " << i;
      }
    }
  }
}

TEST(ShardedDeterminismTest, ExplicitSingleWorkerIsByteIdenticalToDefault) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(7, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    EngineOptions default_options;
    default_options.path_impl = config.path_impl;
    EngineOptions single;
    single.path_impl = config.path_impl;
    single.num_workers = 1;
    const std::vector<Sgt> expected =
        RunEngine(*query, vocab, stream, default_options);
    const std::vector<Sgt> actual = RunEngine(*query, vocab, stream, single);
    ASSERT_EQ(expected.size(), actual.size()) << config.query;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(expected[i] == actual[i])
          << config.query << " position " << i;
    }
  }
}

TEST(ShardedStateTest, BroadcastWindowsAreStoredOncePerOperator) {
  // The shards of the PATH operator and of the join's store-backed port
  // read one partition each, so the window store holds what the
  // single-worker engine holds, whatever the worker count.
  for (const PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(5, &vocab);
    auto query = MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)",
                           WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok());
    std::vector<std::size_t> partitions;
    std::vector<std::size_t> entries;
    for (std::size_t workers : {1, 2, 4}) {
      EngineOptions options;
      options.path_impl = impl;
      options.num_workers = workers;
      options.batch_size = 16;
      Engine engine(options);
      ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
      ASSERT_TRUE(engine.Finalize().ok());
      engine.PushAll(stream);
      const WindowStore* store = engine.executor().window_store();
      partitions.push_back(store->NumPartitions());
      entries.push_back(store->NumEntries());
    }
    EXPECT_EQ(partitions[0], 2u);
    EXPECT_GT(entries[0], 0u);
    for (std::size_t i = 1; i < partitions.size(); ++i) {
      EXPECT_EQ(partitions[i], partitions[0]) << "run " << i;
      EXPECT_EQ(entries[i], entries[0]) << "run " << i;
    }
  }
}

TEST(ShardedTopologyTest, OperatorsCompileToWorkerManyInstances) {
  Vocabulary vocab;
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.num_workers = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  const Executor& exec = engine.executor();
  // Every operator is sharded 4 ways except the sink (last op), which
  // stays single so the merged result order is deterministic.
  ASSERT_GE(exec.NumOps(), 3u);
  for (std::size_t i = 0; i + 1 < exec.NumOps(); ++i) {
    EXPECT_EQ(exec.NumInstances(static_cast<OpId>(i)), 4u) << "op " << i;
  }
  EXPECT_EQ(exec.NumInstances(static_cast<OpId>(exec.NumOps() - 1)), 1u);
  EXPECT_NE(engine.Explain().find("x4"), std::string::npos);
}

}  // namespace
}  // namespace sgq
