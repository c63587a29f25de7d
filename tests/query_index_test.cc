// Tests for the label-discrimination query index (runtime/query_index.h,
// DESIGN.md §3.1) and the executor's dispatch built on it:
//
//  - the posting-list container itself (insert order, wildcard bucket,
//    miss behavior);
//  - indexed dispatch at num_workers = 1 reproduces, byte for byte,
//    frozen result streams — fingerprints across batch sizes, both PATH
//    implementations, and deletion-heavy streams: the index prunes
//    guaranteed-no-op work, never semantics;
//  - sharded runs are snapshot-equivalent to the single-worker reference
//    and byte-deterministic run-to-run;
//  - the index is maintained incrementally as queries are registered on
//    a live engine, and cross-query subtree sharing registers a shared
//    scan's posting exactly once;
//  - wildcard scans (kWScan with input_label = kInvalidLabel) land in
//    the always-on bucket and admit every label;
//  - posting coverage: every label in a registered plan's admission
//    predicate (algebra/translate.h PlanAdmission) is findable in the
//    executor's index, and the index holds no label outside the union
//    of registered admission predicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "core/engine.h"
#include "runtime/query_index.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

// ---------------------------------------------------------------------------
// QueryIndex container
// ---------------------------------------------------------------------------

TEST(QueryIndexTest, FindMissesReturnNullAndWildcardStartsEmpty) {
  QueryIndex index;
  EXPECT_EQ(index.Find(7), nullptr);
  EXPECT_TRUE(index.wildcard().empty());
  EXPECT_EQ(index.NumLabels(), 0u);
  EXPECT_EQ(index.NumPostings(), 0u);
  EXPECT_EQ(index.NumWildcard(), 0u);
}

TEST(QueryIndexTest, PostingsKeepRegistrationOrderPerLabel) {
  QueryIndex index;
  index.Add(3, /*op=*/5);
  index.Add(3, /*op=*/2);
  index.Add(9, /*op=*/7);
  const QueryIndex::PostingList* postings = index.Find(3);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 2u);
  // Registration order, not op-id order: the dispatch contract is
  // "delivery in registration order per label".
  EXPECT_EQ((*postings)[0], 5);
  EXPECT_EQ((*postings)[1], 2);
  EXPECT_EQ(index.NumLabels(), 2u);
  EXPECT_EQ(index.NumPostings(), 3u);
  EXPECT_EQ(index.Find(4), nullptr);
}

TEST(QueryIndexTest, WildcardBucketIsSeparateFromLabelPostings) {
  QueryIndex index;
  index.AddWildcard(11);
  index.Add(3, 5);
  index.AddWildcard(13);
  EXPECT_EQ(index.NumWildcard(), 2u);
  ASSERT_EQ(index.wildcard().size(), 2u);
  EXPECT_EQ(index.wildcard()[0], 11);
  EXPECT_EQ(index.wildcard()[1], 13);
  // Find() intentionally excludes the wildcard bucket: the dispatch
  // appends it after the label postings itself.
  const QueryIndex::PostingList* postings = index.Find(3);
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 1u);
}

// ---------------------------------------------------------------------------
// Indexed dispatch vs the frozen full-scan result streams
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
    {"Answer(x,z) <- a+(x,y), b(y,z)", PathImpl::kDeltaPath},
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

std::vector<Sgt> RunEngine(const StreamingGraphQuery& query,
                           const Vocabulary& vocab,
                           const InputStream& stream,
                           EngineOptions options) {
  Engine engine(options);
  const bool compiled =
      engine.AddQuery(query, vocab).ok() && engine.Finalize().ok();
  EXPECT_TRUE(compiled);
  if (!compiled) return {};
  engine.PushAll(stream);
  return engine.results(0);
}

void ExpectByteIdentical(const std::vector<Sgt>& expected,
                         const std::vector<Sgt>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << context << " position " << i;
  }
}

using testing_util::CanonicalText;

struct FrozenRun {
  uint64_t seed;
  std::size_t config;  ///< index into kConfigs
  std::size_t batch;
  std::size_t results;
  uint64_t fingerprint;  ///< testing_util::Fingerprint of CanonicalText
};

// Frozen result streams of the indexed dispatch at num_workers = 1, with
// every slide boundary purging exactly the state that expired at it. The
// rows first pinned the full-scan dispatch the query index replaced; 14
// rows (configs 0, 1, 3 and 4) were re-frozen when the doubling purge
// watermark gave way to exact boundary purges: each new stream is
// snapshot-identical to the old one at every instant and a subset of it
// (joins and path expansions no longer re-derive past-only intervals
// from expired state), or the same tuples reordered.
const FrozenRun kFrozenRuns[] = {
    {3, 0, 1, 41, 0xeada0f21e0e233b7ull},
    {3, 0, 64, 40, 0x7f5f712783c8e288ull},
    {3, 1, 1, 65, 0xa01edebf8ae5e305ull},
    {3, 1, 64, 65, 0xa01edebf8ae5e305ull},
    {3, 2, 1, 67, 0x2f3c4f8cb65eb375ull},
    {3, 2, 64, 67, 0x2f3c4f8cb65eb375ull},
    {3, 3, 1, 48, 0x6a602cecad719b38ull},
    {3, 3, 64, 47, 0x519273c21f26b82bull},
    {3, 4, 1, 50, 0x3eab2b1bb1738a89ull},
    {3, 4, 64, 50, 0x3eab2b1bb1738a89ull},
    {41, 0, 1, 18, 0xcb664a17d540843aull},
    {41, 0, 64, 18, 0xd756967acc079ae6ull},
    {41, 1, 1, 67, 0x89b526d0d5007e46ull},
    {41, 1, 64, 67, 0x89b526d0d5007e46ull},
    {41, 2, 1, 67, 0xbeeddc0c4536d666ull},
    {41, 2, 64, 67, 0xbeeddc0c4536d666ull},
    {41, 3, 1, 26, 0x5f961bf61e9d1bcbull},
    {41, 3, 64, 26, 0x3e81f798ef07902full},
    {41, 4, 1, 26, 0x5f961bf61e9d1bcbull},
    {41, 4, 64, 26, 0x3e81f798ef07902full},
    {99, 0, 1, 24, 0x3654ca68ff7eae66ull},
    {99, 0, 64, 24, 0x3654ca68ff7eae66ull},
    {99, 1, 1, 62, 0xad16719cc86fc001ull},
    {99, 1, 64, 62, 0xad16719cc86fc001ull},
    {99, 2, 1, 65, 0x088940d600254243ull},
    {99, 2, 64, 65, 0x088940d600254243ull},
    {99, 3, 1, 32, 0x05f49e768909edafull},
    {99, 3, 64, 32, 0x05f49e768909edafull},
    {99, 4, 1, 32, 0xe538f9ba9c9b20cfull},
    {99, 4, 64, 32, 0xe538f9ba9c9b20cfull},
};

TEST(IndexedDispatchTest, ByteIdenticalToFrozenFullScanAtSingleWorker) {
  for (const FrozenRun& frozen : kFrozenRuns) {
    const Config& config = kConfigs[frozen.config];
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(frozen.seed, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    EngineOptions options;
    options.path_impl = config.path_impl;
    options.batch_size = frozen.batch;
    const std::vector<Sgt> results = RunEngine(*query, vocab, stream, options);
    const std::string context = std::string(config.query) +
                                " config=" + std::to_string(frozen.config) +
                                " batch=" + std::to_string(frozen.batch) +
                                " seed=" + std::to_string(frozen.seed);
    EXPECT_EQ(results.size(), frozen.results) << context;
    EXPECT_EQ(testing_util::Fingerprint(CanonicalText(results)),
              frozen.fingerprint)
        << context;
  }
}

TEST(IndexedDispatchTest, ShardedRunsAreSnapshotEquivalentToSingleWorker) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(17, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;

    EngineOptions reference;
    reference.path_impl = config.path_impl;
    const std::vector<Sgt> expected =
        RunEngine(*query, vocab, stream, reference);

    const std::vector<Timestamp> times = SampleTimes(stream, 8);
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions options;
      options.path_impl = config.path_impl;
      options.num_workers = workers;
      options.batch_size = 64;
      const std::vector<Sgt> batched =
          RunEngine(*query, vocab, stream, options);
      for (Timestamp t : times) {
        ASSERT_EQ(ResultPairsAt(batched, t), ResultPairsAt(expected, t))
            << config.query << " workers=" << workers << " t=" << t;
      }
    }
  }
}

TEST(IndexedDispatchTest, ShardedRunsAreByteDeterministic) {
  for (const Config& config : kConfigs) {
    Vocabulary vocab;
    const InputStream stream = DeletionHeavyStream(23, &vocab);
    auto query = MakeQuery(config.query, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << config.query;
    EngineOptions options;
    options.path_impl = config.path_impl;
    options.num_workers = 4;
    options.batch_size = 64;
    ExpectByteIdentical(RunEngine(*query, vocab, stream, options),
                        RunEngine(*query, vocab, stream, options),
                        std::string(config.query) + " repeat");
  }
}

// ---------------------------------------------------------------------------
// Incremental maintenance while queries are registered
// ---------------------------------------------------------------------------

TEST(IndexMaintenanceTest, PostingsGrowWithEachRegisteredQuery) {
  Vocabulary vocab;
  const WindowSpec window(12, 3);
  Engine engine{EngineOptions{}};

  auto q_a = MakeQuery("Answer(x,y) <- a(x,y)", window, &vocab);
  ASSERT_TRUE(q_a.ok());
  ASSERT_TRUE(engine.AddQuery(*q_a, vocab).ok());
  const LabelId a = *vocab.FindLabel("a");
  const QueryIndex& index = engine.executor().query_index();
  EXPECT_EQ(index.NumLabels(), 1u);
  ASSERT_NE(index.Find(a), nullptr);
  EXPECT_EQ(index.Find(a)->size(), 1u);

  auto q_b = MakeQuery("Answer(x,z) <- b(x,y), b(y,z)", window, &vocab);
  ASSERT_TRUE(q_b.ok());
  ASSERT_TRUE(engine.AddQuery(*q_b, vocab).ok());
  const LabelId b = *vocab.FindLabel("b");
  EXPECT_EQ(index.NumLabels(), 2u);
  ASSERT_NE(index.Find(b), nullptr);
  EXPECT_EQ(index.Find(b)->size(), 1u);

  // Re-registering the a query dedups its scan against the live topology
  // (cross-query sharing), so the shared source's posting is NOT
  // duplicated: the index tracks operators, not subscriptions.
  ASSERT_TRUE(engine.AddQuery(*q_a, vocab).ok());
  EXPECT_EQ(index.NumLabels(), 2u);
  EXPECT_EQ(index.Find(a)->size(), 1u);
  EXPECT_EQ(index.NumWildcard(), 0u);

  // With sharing disabled every registration compiles private sources,
  // and the posting list for the label grows with the population.
  EngineOptions unshared;
  unshared.cross_query_sharing = false;
  Engine ablation{unshared};
  ASSERT_TRUE(ablation.AddQuery(*q_a, vocab).ok());
  ASSERT_TRUE(ablation.AddQuery(*q_a, vocab).ok());
  const QueryIndex& ablation_index = ablation.executor().query_index();
  ASSERT_NE(ablation_index.Find(a), nullptr);
  EXPECT_EQ(ablation_index.Find(a)->size(), 2u);
}

// ---------------------------------------------------------------------------
// Wildcard scans
// ---------------------------------------------------------------------------

TEST(WildcardSourceTest, WildcardScanAdmitsEveryLabel) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.num_labels = 3;
  opt.num_edges = 60;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  Engine engine{EngineOptions{}};
  // A bare wildcard scan: input_label = kInvalidLabel admits every label;
  // WScanOp re-emits each arriving element under its own label.
  auto added =
      engine.AddPlan(*MakeWScan(kInvalidLabel, WindowSpec(1000, 10)), vocab);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(engine.Finalize().ok());
  EXPECT_EQ(engine.executor().query_index().NumWildcard(), 1u);
  EXPECT_EQ(engine.executor().query_index().NumLabels(), 0u);
  engine.PushAll(*stream);
  // Every non-deletion element is admitted and emitted (the window
  // outlives the stream, so nothing expires).
  EXPECT_EQ(engine.results(*added).size(), stream->size());
  for (std::size_t i = 0; i < engine.results(*added).size(); ++i) {
    EXPECT_EQ(engine.results(*added)[i].label, (*stream)[i].label);
  }
}

TEST(WildcardSourceTest, WildcardAndLabelQueriesCoexistByteIdentically) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 5;
  opt.num_labels = 3;
  opt.num_edges = 120;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  auto labeled =
      MakeQuery("Answer(x,z) <- a(x,y), b(y,z)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(labeled.ok());

  // The labeled query's output must not depend on the wildcard scan that
  // shares its source dispatch: compare it against the query run alone.
  Engine engine{EngineOptions{}};
  auto wildcard =
      engine.AddPlan(*MakeWScan(kInvalidLabel, WindowSpec(12, 3)), vocab);
  ASSERT_TRUE(wildcard.ok());
  auto q = engine.AddQuery(*labeled, vocab);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);
  EXPECT_FALSE(engine.results(*wildcard).empty());
  ExpectByteIdentical(RunEngine(*labeled, vocab, *stream, EngineOptions{}),
                      engine.results(*q), "wildcard + labeled mix");
}

// ---------------------------------------------------------------------------
// Posting coverage: compile-time admission predicates vs the live index
// ---------------------------------------------------------------------------

TEST(PostingCoverageTest, AdmissionPredicateMatchesPlanLeaves) {
  Vocabulary vocab;
  ASSERT_TRUE(vocab.InternInputLabel("a").ok());
  ASSERT_TRUE(vocab.InternInputLabel("b").ok());
  auto query =
      MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  auto plan = TranslateToCanonicalPlan(*query, vocab);
  ASSERT_TRUE(plan.ok());
  const AdmissionPredicate admission = PlanAdmission(**plan);
  EXPECT_FALSE(admission.wildcard);
  std::vector<LabelId> expected = {*vocab.FindLabel("a"),
                                   *vocab.FindLabel("b")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(admission.labels, expected);

  const AdmissionPredicate wild =
      PlanAdmission(*MakeWScan(kInvalidLabel, WindowSpec(12, 3)));
  EXPECT_TRUE(wild.wildcard);
  EXPECT_TRUE(wild.labels.empty());
}

TEST(PostingCoverageTest, IndexCoversExactlyTheRegisteredAdmissions) {
  const char* kTexts[] = {
      "Answer(x,y) <- a(x,y)",
      "Answer(x,z) <- a(x,y), b(y,z)",
      "Answer(x,y) <- b+(x,y)",
      "Answer(x,z) <- c+(x,y), a(y,z)",
      "Answer(x,w) <- a(x,y), b(y,z), c(z,w)",
  };
  Vocabulary vocab;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(vocab.InternInputLabel(name).ok());
  }

  Engine engine{EngineOptions{}};
  std::set<LabelId> admitted;
  bool any_wildcard = false;
  for (const char* text : kTexts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << text;
    auto plan = TranslateToCanonicalPlan(*query, vocab);
    ASSERT_TRUE(plan.ok()) << text;
    const AdmissionPredicate admission = PlanAdmission(**plan);
    admitted.insert(admission.labels.begin(), admission.labels.end());
    any_wildcard |= admission.wildcard;
    ASSERT_TRUE(engine.AddPlan(**plan, vocab).ok()) << text;

    // Invariant at every registration point, not just at the end: each
    // admission label is findable with at least one valid posting.
    const QueryIndex& index = engine.executor().query_index();
    for (LabelId label : admission.labels) {
      const QueryIndex::PostingList* postings = index.Find(label);
      ASSERT_NE(postings, nullptr)
          << text << " label " << vocab.LabelName(label);
      EXPECT_FALSE(postings->empty());
      for (const OpId posting : *postings) {
        EXPECT_GE(posting, 0);
        EXPECT_LT(static_cast<std::size_t>(posting),
                  engine.executor().NumOps());
      }
    }
  }

  // No stray postings: the index's label set is exactly the union of the
  // registered plans' admission predicates, and nothing registered a
  // wildcard bucket entry.
  const QueryIndex& index = engine.executor().query_index();
  const std::vector<LabelId> labels = index.Labels();
  const std::set<LabelId> indexed(labels.begin(), labels.end());
  EXPECT_EQ(indexed, admitted);
  EXPECT_EQ(index.NumWildcard(), any_wildcard ? 1u : 0u);
}

}  // namespace
}  // namespace sgq
