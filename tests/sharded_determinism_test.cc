// Determinism and equivalence tests for sharded multi-worker execution
// (runtime/shard.h, DESIGN.md §2.4):
//
//  - num_workers = 1 is byte-identical to the default engine, and its
//    waves — the one-instance case of the sharded exchange — keep frozen
//    result streams where several scans feed one port, and at batch 1
//    the snapshots Table 1's queries had under the depth-first drain;
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

enum class TableStream { kSo, kSoDeletions, kSnb };

struct FrozenTableRun {
  TableStream stream;
  const char* query;  ///< name in SoQuerySet() / SnbQuerySet()
  PathImpl path_impl;
  std::size_t results;            ///< length of the depth-first stream
  uint64_t fingerprint;           ///< Fingerprint of its CanonicalText
  uint64_t snapshot_fingerprint;  ///< SnapshotFingerprint
  bool reordered;                 ///< the wave emits it in another order
};

// Frozen one-worker, batch-1 result streams of Table 1's queries, recorded
// while batch 1 still drained each emission's cascade depth-first (the
// seed's recursive engine, byte for byte). Batch 1 now runs the wave, one
// element per wave. Every snapshot holds; the rows marked `reordered`
// emit them in another order, for one of two reasons:
//  - Producers sharing one port deliver in ascending id order. Q3's
//    star-join UNION puts its branches on port 0, so one branch's output
//    of a wave precedes the next branch's instead of interleaving.
//  - A time-advance wave runs every time-driven operator before it
//    delivers what they emitted, as batch > 1 always did. Q7 runs a
//    Δ-PATH over a Δ-PATH: the outer one expires before it sees the inner
//    one's expiries, not after.
// SO's Q2 and Q3 with deletions are left out: on this stream both miss
// oracle pairs at 9 to 12 of the 17 instants in either order (ROADMAP's
// open UNION defect: a stateless UNION forwards one branch's retraction
// while another branch still derives the value), and Q3's snapshots move
// with the order.
const FrozenTableRun kFrozenTableRuns[] = {
    {TableStream::kSo, "Q1", PathImpl::kSPath,
     14300, 0x64ecdcb90b2d9211ull, 0xd8cc2d13b8247892ull, false},
    {TableStream::kSo, "Q1", PathImpl::kDeltaPath,
     13201, 0x62dab69a941434b2ull, 0xd8cc2d13b8247892ull, false},
    {TableStream::kSo, "Q2", PathImpl::kSPath,
     7089, 0x65c619596be25671ull, 0x092b39425b4e59c2ull, false},
    {TableStream::kSo, "Q2", PathImpl::kDeltaPath,
     7311, 0x7faeecfd091d2ce2ull, 0x092b39425b4e59c2ull, false},
    {TableStream::kSo, "Q3", PathImpl::kSPath,
     13787, 0x694abe5779e243e9ull, 0x1732024160ce2095ull, true},
    {TableStream::kSo, "Q3", PathImpl::kDeltaPath,
     14476, 0x058b22d6feeae057ull, 0x1732024160ce2095ull, true},
    {TableStream::kSo, "Q4", PathImpl::kSPath,
     8089, 0x75f70fa00a92c717ull, 0xe196f71649055ba1ull, false},
    {TableStream::kSo, "Q4", PathImpl::kDeltaPath,
     7511, 0xbf2e60b0af365742ull, 0xe196f71649055ba1ull, false},
    {TableStream::kSo, "Q5", PathImpl::kSPath,
     55, 0xa167dc4fd9ab87c8ull, 0xa0a552440aadd387ull, false},
    {TableStream::kSo, "Q5", PathImpl::kDeltaPath,
     55, 0xa167dc4fd9ab87c8ull, 0xa0a552440aadd387ull, false},
    {TableStream::kSo, "Q6", PathImpl::kSPath,
     411, 0x1f96ee8ce86a1b3bull, 0x3e40c5c0cde9646cull, false},
    {TableStream::kSo, "Q6", PathImpl::kDeltaPath,
     464, 0x8912b4a37bf8a4eaull, 0x3e40c5c0cde9646cull, false},
    {TableStream::kSo, "Q7", PathImpl::kSPath,
     2821, 0xf2947359269677a8ull, 0xdf3ffc27686d7822ull, false},
    {TableStream::kSo, "Q7", PathImpl::kDeltaPath,
     2991, 0x20a08d2fd118dda9ull, 0xdf3ffc27686d7822ull, true},
    {TableStream::kSoDeletions, "Q1", PathImpl::kSPath,
     16488, 0xeb5016d01fd18ee8ull, 0xea30cf75b68f85e6ull, false},
    {TableStream::kSoDeletions, "Q1", PathImpl::kDeltaPath,
     15559, 0x52485374cc4d2d8bull, 0xea30cf75b68f85e6ull, false},
    {TableStream::kSoDeletions, "Q4", PathImpl::kSPath,
     12910, 0x486038961d6dcc02ull, 0xd61ff23ab9088454ull, false},
    {TableStream::kSoDeletions, "Q4", PathImpl::kDeltaPath,
     12131, 0x25e7981f4630ace1ull, 0xd61ff23ab9088454ull, false},
    {TableStream::kSoDeletions, "Q5", PathImpl::kSPath,
     44, 0x512baff7a5287736ull, 0xc41d341ebfaf7334ull, false},
    {TableStream::kSoDeletions, "Q5", PathImpl::kDeltaPath,
     44, 0x512baff7a5287736ull, 0xc41d341ebfaf7334ull, false},
    {TableStream::kSoDeletions, "Q6", PathImpl::kSPath,
     362, 0xd3977695033285b4ull, 0xe1ce36e041d21e81ull, false},
    {TableStream::kSoDeletions, "Q6", PathImpl::kDeltaPath,
     353, 0x2a948b8e096ad9c0ull, 0xe1ce36e041d21e81ull, false},
    {TableStream::kSoDeletions, "Q7", PathImpl::kSPath,
     1633, 0x147a527647f33ad6ull, 0x015fbac1a0b1fbf0ull, false},
    {TableStream::kSoDeletions, "Q7", PathImpl::kDeltaPath,
     1579, 0xcc8c5b2170e31fb2ull, 0x015fbac1a0b1fbf0ull, true},
    {TableStream::kSnb, "Q1", PathImpl::kSPath,
     937, 0xd110d58228dbe90bull, 0xaf094fd47a2ea51eull, false},
    {TableStream::kSnb, "Q1", PathImpl::kDeltaPath,
     937, 0xd110d58228dbe90bull, 0xaf094fd47a2ea51eull, false},
    {TableStream::kSnb, "Q2", PathImpl::kSPath,
     1480, 0x357c91884d170977ull, 0xb972757d650f8f0full, false},
    {TableStream::kSnb, "Q2", PathImpl::kDeltaPath,
     1480, 0x357c91884d170977ull, 0xb972757d650f8f0full, false},
    {TableStream::kSnb, "Q3", PathImpl::kSPath,
     2745, 0xee516a9541219f8eull, 0x6c086d1be625a831ull, false},
    {TableStream::kSnb, "Q3", PathImpl::kDeltaPath,
     2745, 0xee516a9541219f8eull, 0x6c086d1be625a831ull, false},
    {TableStream::kSnb, "Q4", PathImpl::kSPath,
     19190, 0xc786b7ae0595db90ull, 0x32e6fe6c84f5604bull, false},
    {TableStream::kSnb, "Q4", PathImpl::kDeltaPath,
     13295, 0xed6b7336c1361330ull, 0x32e6fe6c84f5604bull, false},
    {TableStream::kSnb, "Q5", PathImpl::kSPath,
     38, 0xe23f1a341307b45aull, 0x0cc29b5760325ce7ull, false},
    {TableStream::kSnb, "Q5", PathImpl::kDeltaPath,
     38, 0xe23f1a341307b45aull, 0x0cc29b5760325ce7ull, false},
    {TableStream::kSnb, "Q6", PathImpl::kSPath,
     280, 0xbdf54a4711fc2b7bull, 0xfe1928f358044d86ull, false},
    {TableStream::kSnb, "Q6", PathImpl::kDeltaPath,
     291, 0xc79ab5a63ba3649aull, 0xfe1928f358044d86ull, false},
    {TableStream::kSnb, "Q7", PathImpl::kSPath,
     5584, 0xc047451ea0d80777ull, 0xdbb3a156bc4d84f6ull, false},
    {TableStream::kSnb, "Q7", PathImpl::kDeltaPath,
     5756, 0x6f76a7e2580ddf92ull, 0xdbb3a156bc4d84f6ull, true},
};

InputStream TableStreamOf(TableStream which, Vocabulary* vocab) {
  SoOptions so;
  so.seed = 5;
  so.num_vertices = 120;
  so.num_edges = 700;
  so.deletion_probability = which == TableStream::kSoDeletions ? 0.1 : 0;
  SnbOptions snb;
  snb.seed = 5;
  snb.num_persons = 60;
  snb.num_events = 1500;
  const auto stream = which == TableStream::kSnb
                          ? GenerateSnbStream(snb, vocab)
                          : GenerateSoStream(so, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// \brief Fingerprint of the result snapshots at 17 instants spread over
/// the stream: one line per live edge, instant by instant.
uint64_t SnapshotFingerprint(const std::vector<Sgt>& results,
                             const InputStream& stream) {
  std::string text;
  for (const Timestamp t : SampleTimes(stream, 16)) {
    text += "@" + std::to_string(t) + "\n";
    for (const EdgeRef& e : SnapshotEdges(results, t)) {
      text += std::to_string(e.src) + " " + std::to_string(e.trg) + " " +
              std::to_string(e.label) + "\n";
    }
  }
  return testing_util::Fingerprint(text);
}

TEST(SingleWorkerWaveTest, TableOneQueriesKeepFrozenDepthFirstSnapshots) {
  for (const FrozenTableRun& frozen : kFrozenTableRuns) {
    Vocabulary vocab;
    const InputStream stream = TableStreamOf(frozen.stream, &vocab);
    const bool snb = frozen.stream == TableStream::kSnb;
    std::string text;
    for (const BenchQuery& q : snb ? SnbQuerySet() : SoQuerySet()) {
      if (q.name == frozen.query) text = q.text;
    }
    const WindowSpec window =
        snb ? WindowSpec(8 * kDay, kDay) : WindowSpec(3 * kDay, kDay / 2);
    auto query = MakeQuery(text, window, &vocab);
    ASSERT_TRUE(query.ok()) << frozen.query;
    EngineOptions options;
    options.path_impl = frozen.path_impl;
    const std::vector<Sgt> results = RunEngine(*query, vocab, stream, options);
    const std::string context =
        std::string(frozen.query) + " stream=" +
        std::to_string(static_cast<int>(frozen.stream)) + " delta=" +
        std::to_string(frozen.path_impl == PathImpl::kDeltaPath);
    EXPECT_EQ(SnapshotFingerprint(results, stream),
              frozen.snapshot_fingerprint)
        << context;
    if (frozen.reordered) continue;
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
