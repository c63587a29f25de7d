// Tests for the multi-query engine (core/engine.h, DESIGN.md §3):
//
//  - cross-query subtree sharing instantiates a shared operator exactly
//    once (operator-count metrics), and registering the same plan K times
//    adds only K - 1 sinks;
//  - at num_workers = 1 / batch_size = 1 each registered query's output
//    is byte-identical to compiling it alone, for overlapping and
//    disjoint query mixes, both PATH implementations, deletion-heavy
//    streams — and independent of whether sharing is enabled;
//  - sharded multi-query runs are snapshot-equivalent to the solo
//    references at every sampled instant and byte-deterministic
//    run-to-run;
//  - the merge-side coalescer at the exchange restores single-worker
//    emission volume for cross-shard-duplicating PATTERN output.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "core/query_processor.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

InputStream RandomStream(uint64_t seed, double deletion_probability,
                         Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 150;
  opt.max_gap = 2;
  opt.deletion_probability = deletion_probability;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// The workload mix: q0/q1 overlap (both compile the a+ PATH subtree and
/// the a scan), q2 is disjoint from them.
std::vector<StreamingGraphQuery> MixedQueries(Vocabulary* vocab) {
  const char* texts[] = {
      "Answer(x,y) <- a+(x,y)",
      "Answer(x,z) <- a+(x,y), b(y,z)",
      "Answer(x,z) <- c(x,y), c(y,z)",
  };
  std::vector<StreamingGraphQuery> queries;
  for (const char* text : texts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), vocab);
    EXPECT_TRUE(query.ok()) << text;
    if (query.ok()) queries.push_back(*query);
  }
  return queries;
}

std::vector<Sgt> RunSolo(const StreamingGraphQuery& query,
                         const Vocabulary& vocab, const InputStream& stream,
                         EngineOptions options) {
  auto qp = QueryProcessor::FromQuery(query, vocab, options);
  EXPECT_TRUE(qp.ok()) << qp.status().ToString();
  if (!qp.ok()) return {};
  (*qp)->PushAll(stream);
  return (*qp)->results();
}

std::vector<std::vector<Sgt>> RunMulti(
    const std::vector<StreamingGraphQuery>& queries, const Vocabulary& vocab,
    const InputStream& stream, EngineOptions options) {
  Engine engine(options);
  for (const StreamingGraphQuery& query : queries) {
    auto added = engine.AddQuery(query, vocab);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    if (!added.ok()) return {};
  }
  EXPECT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream);
  std::vector<std::vector<Sgt>> results;
  results.reserve(engine.num_queries());
  for (std::size_t q = 0; q < engine.num_queries(); ++q) {
    results.push_back(engine.results(static_cast<QueryId>(q)));
  }
  return results;
}

void ExpectByteIdentical(const std::vector<Sgt>& expected,
                         const std::vector<Sgt>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << context << " position " << i;
  }
}

// ---------------------------------------------------------------------------
// Operator sharing
// ---------------------------------------------------------------------------

TEST(MultiQueryEngineTest, SameQueryRegisteredKTimesAddsOnlySinks) {
  Vocabulary vocab;
  auto query =
      MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());

  Engine solo{EngineOptions{}};
  ASSERT_TRUE(solo.AddQuery(*query, vocab).ok());
  const std::size_t solo_ops = solo.NumOperators();

  constexpr int kCopies = 5;
  Engine engine{EngineOptions{}};
  for (int k = 0; k < kCopies; ++k) {
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  }
  ASSERT_TRUE(engine.Finalize().ok());
  // Every registration past the first resolves its whole plan to existing
  // operators and contributes exactly one sink.
  EXPECT_EQ(engine.NumOperators(), solo_ops + kCopies - 1);
  EXPECT_GE(engine.NumSharedSubtrees(), static_cast<std::size_t>(kCopies - 1));
  // Each extra registration hits the existing root once (the hit
  // short-circuits the subtree walk) — all of them cross-registration.
  EXPECT_EQ(engine.NumCrossQuerySharedSubtrees(),
            static_cast<std::size_t>(kCopies - 1));
  // Every subscriber root is the same shared physical operator.
  for (int k = 1; k < kCopies; ++k) {
    EXPECT_EQ(engine.QueryRoot(k), engine.QueryRoot(0));
  }

  InputStream stream = RandomStream(11, 0.2, &vocab);
  engine.PushAll(stream);
  // All K sinks demux byte-identical result streams.
  for (int k = 1; k < kCopies; ++k) {
    ExpectByteIdentical(engine.results(0), engine.results(k),
                        "copy " + std::to_string(k));
  }
}

TEST(MultiQueryEngineTest, OverlappingQueriesShareTheCommonSubtree) {
  Vocabulary vocab;
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  ASSERT_EQ(queries.size(), 3u);

  std::size_t solo_ops_total = 0;
  for (const StreamingGraphQuery& query : queries) {
    Engine solo{EngineOptions{}};
    ASSERT_TRUE(solo.AddQuery(query, vocab).ok());
    solo_ops_total += solo.NumOperators();
  }
  Engine engine{EngineOptions{}};
  for (const StreamingGraphQuery& query : queries) {
    ASSERT_TRUE(engine.AddQuery(query, vocab).ok());
  }
  // q0/q1 share the a-scan + a+ PATH chain; q2 shares nothing.
  EXPECT_LT(engine.NumOperators(), solo_ops_total);
  EXPECT_GE(engine.NumCrossQuerySharedSubtrees(), 1u);

  // With sharing off the dedup map resets per registration, so
  // cross-registration hits cannot occur.
  EngineOptions unshared;
  unshared.cross_query_sharing = false;
  Engine private_engine(unshared);
  for (const StreamingGraphQuery& query : queries) {
    ASSERT_TRUE(private_engine.AddQuery(query, vocab).ok());
  }
  EXPECT_EQ(private_engine.NumCrossQuerySharedSubtrees(), 0u);
}

TEST(MultiQueryEngineTest, ClosureAliasesAreLabelCanonicalAcrossQueries) {
  // Datalog translation names each a+ closure's derived label after the
  // base label alone ("__tc_a"), not after its position in the rule: the
  // same closure reached through different rule shapes must compile to
  // the same canonical subtree. Here q1's second closure atom would get a
  // position-dependent alias under positional naming ("__tc_a_1" vs q0's
  // "__tc_a_0") and the a+ PATH chain would wrongly compile twice.
  Vocabulary vocab;
  const char* texts[] = {
      "Answer(x,y) <- a+(x,y)",
      "Answer(x,z) <- b+(x,y), a+(y,z)",
  };
  std::vector<StreamingGraphQuery> queries;
  std::size_t solo_ops_total = 0;
  for (const char* text : texts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << text;
    Engine solo{EngineOptions{}};
    ASSERT_TRUE(solo.AddQuery(*query, vocab).ok());
    solo_ops_total += solo.NumOperators();
    queries.push_back(*query);
  }

  Engine engine{EngineOptions{}};
  for (const StreamingGraphQuery& query : queries) {
    ASSERT_TRUE(engine.AddQuery(query, vocab).ok());
  }
  // The a+ chain (a-scan + PATH) dedups even though the closures sit at
  // different atom positions: the sharing hit counter must rise.
  EXPECT_GE(engine.NumCrossQuerySharedSubtrees(), 1u);
  EXPECT_LT(engine.NumOperators(), solo_ops_total);

  // Sharing the closure must not change what either query answers.
  ASSERT_TRUE(engine.Finalize().ok());
  const InputStream stream = RandomStream(31, 0.2, &vocab);
  engine.PushAll(stream);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ExpectByteIdentical(
        RunSolo(queries[q], vocab, stream, EngineOptions{}),
        engine.results(static_cast<QueryId>(q)),
        std::string("query ") + texts[q]);
  }
}

// ---------------------------------------------------------------------------
// Per-query byte-identity at num_workers = 1
// ---------------------------------------------------------------------------

class MultiQueryByteIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiQueryByteIdentityTest, EachQueryMatchesItsSoloRun) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 977 + 5;
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    Vocabulary vocab;
    const InputStream stream = RandomStream(seed, 0.2, &vocab);
    std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
    ASSERT_EQ(queries.size(), 3u);

    EngineOptions options;
    options.path_impl = impl;
    const std::vector<std::vector<Sgt>> multi =
        RunMulti(queries, vocab, stream, options);
    ASSERT_EQ(multi.size(), queries.size());

    EngineOptions unshared = options;
    unshared.cross_query_sharing = false;
    const std::vector<std::vector<Sgt>> private_topologies =
        RunMulti(queries, vocab, stream, unshared);
    ASSERT_EQ(private_topologies.size(), queries.size());

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string context =
          "query " + std::to_string(q) + " seed " + std::to_string(seed) +
          (impl == PathImpl::kSPath ? " s-path" : " delta");
      const std::vector<Sgt> solo =
          RunSolo(queries[q], vocab, stream, options);
      ExpectByteIdentical(solo, multi[q], context + " shared");
      // Sharing itself is behaviorally invisible.
      ExpectByteIdentical(solo, private_topologies[q],
                          context + " unshared");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiQueryByteIdentityTest,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Sharded multi-query: snapshot equivalence + determinism
// ---------------------------------------------------------------------------

TEST(MultiQueryShardedTest, SnapshotEquivalentToSoloAndDeterministic) {
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    Vocabulary vocab;
    const InputStream stream = RandomStream(321, 0.2, &vocab);
    std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
    ASSERT_EQ(queries.size(), 3u);

    EngineOptions reference_options;
    reference_options.path_impl = impl;
    std::vector<std::vector<Sgt>> reference;
    for (const StreamingGraphQuery& query : queries) {
      reference.push_back(RunSolo(query, vocab, stream, reference_options));
    }

    const std::vector<Timestamp> times = SampleTimes(stream, 6);
    for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        EngineOptions options;
        options.path_impl = impl;
        options.num_workers = workers;
        options.batch_size = batch;
        const std::vector<std::vector<Sgt>> sharded =
            RunMulti(queries, vocab, stream, options);
        ASSERT_EQ(sharded.size(), queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
          for (Timestamp t : times) {
            ASSERT_EQ(ResultPairsAt(sharded[q], t),
                      ResultPairsAt(reference[q], t))
                << "query " << q << " workers " << workers << " batch "
                << batch << " t " << t;
          }
        }
        const std::vector<std::vector<Sgt>> repeat =
            RunMulti(queries, vocab, stream, options);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          ExpectByteIdentical(sharded[q], repeat[q],
                              "determinism query " + std::to_string(q));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Merge-side coalescer at the exchange
// ---------------------------------------------------------------------------

TEST(MergeCoalescerTest, RestoresSingleWorkerEmissionVolume) {
  Vocabulary vocab;
  // Insert-only and dense (few vertices, many edges, wide window): the
  // same output pair derives from many mid-vertices whose port-0
  // bindings hash to different shards, so cross-shard duplicates are
  // plentiful — and every emission-volume difference between worker
  // counts is such duplication, which the exchange-side coalescer must
  // remove entirely.
  RandomStreamOptions opt;
  opt.seed = 42;
  opt.num_vertices = 5;
  opt.num_labels = 2;
  opt.num_edges = 400;
  opt.max_gap = 1;
  opt.deletion_probability = 0.0;
  auto generated = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(generated.ok());
  const InputStream stream = *generated;
  auto query =
      MakeQuery("Answer(x,z) <- a(x,y), b(y,z)", WindowSpec(24, 6), &vocab);
  ASSERT_TRUE(query.ok());

  auto run = [&](std::size_t workers) {
    EngineOptions options;
    options.num_workers = workers;
    options.batch_size = 64;
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    EXPECT_TRUE(qp.ok());
    (*qp)->PushAll(stream);
    return std::make_pair((*qp)->results_emitted(),
                          (*qp)->executor().merge_suppressed());
  };

  const auto [single_volume, single_suppressed] = run(1);
  EXPECT_EQ(single_suppressed, 0u);
  ASSERT_GT(single_volume, 0u);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const auto [volume, suppressed] = run(workers);
    // Cross-shard duplication is removed entirely: sharded volume never
    // exceeds the single worker's. It may dip a hair *below* it — the
    // shard-merge order can present a covering interval before the tuple
    // the single instance happened to emit first — which is still
    // snapshot-complete (suppressed tuples are covered by forwarded
    // ones).
    EXPECT_LE(volume, single_volume) << "workers " << workers;
    EXPECT_GE(volume + single_volume / 100 + 1, single_volume)
        << "workers " << workers;
    // The coalescer actually did the restoring (the partitioned join
    // derives value-equivalent outputs on different shards).
    EXPECT_GT(suppressed, 0u) << "workers " << workers;
  }
}

TEST(MergeCoalescerTest, DeletionHeavyShardedRunsStaySnapshotEquivalent) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(77, 0.25, &vocab);
  auto query = MakeQuery("Answer(x,w) <- a(x,y), b(y,z), c(z,w)",
                         WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions reference_options;
  const std::vector<Sgt> reference =
      RunSolo(*query, vocab, stream, reference_options);
  const std::vector<Timestamp> times = SampleTimes(stream, 8);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    EngineOptions options;
    options.num_workers = workers;
    options.batch_size = 64;
    const std::vector<Sgt> sharded = RunSolo(*query, vocab, stream, options);
    for (Timestamp t : times) {
      ASSERT_EQ(ResultPairsAt(sharded, t), ResultPairsAt(reference, t))
          << "workers " << workers << " t " << t;
    }
  }
}

}  // namespace
}  // namespace sgq
