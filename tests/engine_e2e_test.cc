// End-to-end tests: canonical plans for Table 1-style queries evaluated
// incrementally and compared, at sampled instants, against the one-time
// oracle on window snapshots (Def. 15). Also: equivalence of rewritten
// plans (§5.4), the S-PATH vs Δ-tree engine configurations, explicit
// deletions through full plans, and the G-CORE front-end end to end.

#include <gtest/gtest.h>

#include "algebra/transform.h"
#include "algebra/translate.h"
#include "core/engine.h"
#include "query/gcore.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

struct E2eCase {
  const char* name;
  const char* text;  // rq.h Datalog syntax over labels a, b, c
  int seed;
};

class EndToEndTest : public ::testing::TestWithParam<E2eCase> {};

TEST_P(EndToEndTest, CanonicalPlanMatchesOracle) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed);
  opt.num_vertices = 9;
  opt.num_labels = 3;
  opt.num_edges = 100;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query = MakeQuery(GetParam().text, WindowSpec(18, 1), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    EngineOptions options;
    options.path_impl = impl;
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    engine.PushAll(*stream);
    for (Timestamp t : SampleTimes(*stream, 12)) {
      EXPECT_EQ(ResultPairsAt(engine.results(0), t),
                OraclePairsAt(*stream, *query, vocab, t))
          << GetParam().name << " impl=" << static_cast<int>(impl)
          << " t=" << t;
    }
  }
}

TEST_P(EndToEndTest, EnumeratedPlansAreEquivalent) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed) + 77;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 70;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query = MakeQuery(GetParam().text, WindowSpec(15, 1), &vocab);
  ASSERT_TRUE(query.ok());
  auto canonical = TranslateToCanonicalPlan(*query, vocab);
  ASSERT_TRUE(canonical.ok());

  // Reference run: the canonical plan.
  Engine reference;
  ASSERT_TRUE(reference.AddPlan(**canonical, vocab).ok());
  ASSERT_TRUE(reference.Finalize().ok());
  reference.PushAll(*stream);
  const std::vector<Timestamp> times = SampleTimes(*stream, 8);
  std::vector<VertexPairSet> expected;
  for (Timestamp t : times) {
    expected.push_back(ResultPairsAt(reference.results(0), t));
  }

  // Every plan found by the transformation rules must agree (Def. 14:
  // the rules are equivalences).
  std::vector<LogicalPlan> plans = EnumeratePlans(**canonical, &vocab, 10);
  ASSERT_GE(plans.size(), 1u);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    Engine engine;
    ASSERT_TRUE(engine.AddPlan(*plans[i], vocab).ok())
        << plans[i]->ToString(vocab);
    ASSERT_TRUE(engine.Finalize().ok());
    engine.PushAll(*stream);
    for (std::size_t j = 0; j < times.size(); ++j) {
      EXPECT_EQ(ResultPairsAt(engine.results(0), times[j]), expected[j])
          << GetParam().name << " plan#" << i << " t=" << times[j] << "\n"
          << plans[i]->ToString(vocab);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Shapes, EndToEndTest,
    ::testing::Values(
        E2eCase{"Q1", "Answer(x,y) <- a*(x,y)", 11},
        E2eCase{"Q2", "Answer(x,y) <- a(x,z), b*(z,y)", 12},
        E2eCase{"Q3", "Answer(x,y) <- a(x,z), b*(z,w), c*(w,y)", 13},
        E2eCase{"Q4",
                "D(x,y) <- a(x,z1), b(z1,z2), c(z2,y)\n"
                "Answer(x,y) <- D+(x,y)",
                14},
        E2eCase{"Q5",
                "Answer(m1,m2) <- a(x,y), b(m1,x), b(m2,y), c(m2,m1)", 15},
        E2eCase{"Q6", "Answer(x,y) <- a+(x,y), b(x,m), c(m,y)", 16},
        E2eCase{"Q7",
                "RL(x,y) <- a+(x,y), b(x,m), c(m,y)\n"
                "Answer(x,m) <- RL+(x,y), c(m,y)",
                17},
        E2eCase{"Union",
                "R(x,y) <- a(x,y)\nR(x,y) <- b(x,y)\n"
                "Answer(x,y) <- R+(x,y)",
                18},
        E2eCase{"SelfJoin", "Answer(x,y) <- a(x,y), b(x,y)", 19}),
    [](const ::testing::TestParamInfo<E2eCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Explicit deletions through full plans
// ---------------------------------------------------------------------------

class DeletionCase : public ::testing::TestWithParam<int> {};

TEST_P(DeletionCase, EngineMatchesOracleUnderExplicitDeletions) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam());
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 80;
  opt.max_gap = 2;
  opt.deletion_probability = 0.15;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(16, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);
  for (Timestamp t : SampleTimes(*stream, 10)) {
    EXPECT_EQ(ResultPairsAt(engine.results(0), t),
              OraclePairsAt(*stream, *query, vocab, t))
        << "seed=" << GetParam() << " t=" << t;
  }
}

TEST_P(DeletionCase, PatternPlanMatchesOracleUnderDeletions) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 500;
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 80;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query =
      MakeQuery("Answer(x,y) <- a(x,z), b(z,y)", WindowSpec(14, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);
  for (Timestamp t : SampleTimes(*stream, 10)) {
    EXPECT_EQ(ResultPairsAt(engine.results(0), t),
              OraclePairsAt(*stream, *query, vocab, t))
        << "seed=" << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeletionCase, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Composability and the G-CORE front-end, end to end
// ---------------------------------------------------------------------------

TEST(ComposabilityTest, QueryOutputFeedsAnotherQuery) {
  // SGA closedness (§5.3): run Q over S, feed its output stream into Q'.
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 99;
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 60;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  // Q: Ans1 = a . b (derived edges labelled Ans1).
  auto q1 = MakeQuery("Answer(x,y) <- a(x,z), b(z,y)", WindowSpec(20, 1),
                      &vocab);
  ASSERT_TRUE(q1.ok());
  Engine engine1;
  ASSERT_TRUE(engine1.AddQuery(*q1, vocab).ok());
  ASSERT_TRUE(engine1.Finalize().ok());
  engine1.PushAll(*stream);

  // Q': transitive closure over the derived Answer edges, evaluated as a
  // PATH plan over the (already windowed) output streaming graph.
  LabelId ans = (*q1).rq.answer();
  LabelId out2 = *vocab.InternDerivedLabel("Closure");
  std::vector<LogicalPlan> children;
  children.push_back(MakeWScan(ans, WindowSpec(20, 1)));
  auto plan2 =
      MakePath(out2, Regex::Plus(Regex::Label(ans)), std::move(children));
  // Compile with a scan that simply forwards (the output tuples already
  // carry validity intervals, so we feed them directly as sgts).
  Engine engine2;
  ASSERT_TRUE(engine2.AddPlan(*plan2, vocab).ok());
  ASSERT_TRUE(engine2.Finalize().ok());
  // Directly inject the first query's output via the scan's OnTuple hook:
  // here we reuse PushAll by converting sgts back to sges would lose the
  // intervals, so instead verify closedness through the oracle: the
  // composed semantics equals TC over Q's snapshot output.
  const std::vector<Sgt>& results1 = engine1.results(0);
  for (Timestamp t : SampleTimes(*stream, 6)) {
    VertexPairSet q1_pairs = ResultPairsAt(results1, t);
    VertexPairSet composed = TransitiveClosure(q1_pairs);
    // Oracle for the composition: TC of the oracle of Q.
    VertexPairSet oracle_pairs = OraclePairsAt(*stream, *q1, vocab, t);
    EXPECT_EQ(composed, TransitiveClosure(oracle_pairs)) << " t=" << t;
  }
}

TEST(GCoreEndToEndTest, Figure6QueryRunsOnRunningExample) {
  Vocabulary vocab;
  auto query = ParseGCore(
      "PATH RL = (u1)-/<:follows+>/->(u2), "
      "(u1)-[:likes]->(m1)<-[:posts]-(u2)\n"
      "CONSTRUCT (u)-[:notify]->(m)\n"
      "MATCH (u)-/<~RL+>/->(v), (v)-[:posts]->(m)\n"
      "ON social_stream WINDOW (24 HOURS)",
      &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // The Figure 2 stream (vertices interned into the same vocabulary).
  InputStream stream;
  auto add = [&](const char* s, const char* l, const char* g, Timestamp t) {
    stream.emplace_back(*vocab.InternVertex(s), *vocab.InternVertex(g),
                        *vocab.FindLabel(l), t);
  };
  add("u", "follows", "v", 7);
  add("v", "posts", "b", 10);
  add("y", "follows", "u", 13);
  add("v", "posts", "c", 17);
  add("u", "posts", "a", 22);
  add("y", "likes", "a", 28);
  add("u", "likes", "b", 29);
  add("u", "likes", "c", 30);

  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream);

  // Example 1's notification: y is notified of v's posts via the
  // recentLiker path y -> u -> v, and of u's posts via y -> u.
  const VertexId y = *vocab.FindVertex("y");
  const VertexId u = *vocab.FindVertex("u");
  const VertexId a = *vocab.FindVertex("a");
  const VertexId b = *vocab.FindVertex("b");
  const VertexId c = *vocab.FindVertex("c");
  VertexPairSet pairs = ResultPairsAt(engine.results(0), 30);
  EXPECT_TRUE(pairs.count({y, a}) > 0);  // u posted a; y recentLikes u
  EXPECT_TRUE(pairs.count({y, b}) > 0);  // v posted b; path y->u->v
  EXPECT_TRUE(pairs.count({y, c}) > 0);
  EXPECT_TRUE(pairs.count({u, b}) > 0);  // u recentLikes v directly
  // Snapshot reducibility for the whole G-CORE query.
  for (Timestamp t : {25, 28, 29, 30}) {
    EXPECT_EQ(ResultPairsAt(engine.results(0), t),
              OraclePairsAt(stream, *query, vocab, t))
        << " t=" << t;
  }
}

TEST(MultiWindowTest, PerLabelWindowsChangeExpiry) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,z), b(z,y)", WindowSpec(10, 1),
                         &vocab);
  ASSERT_TRUE(query.ok());
  // b tuples live much longer than a tuples.
  query->per_label_windows[*vocab.FindLabel("b")] = WindowSpec(100, 1);

  InputStream stream = {
      Sge(1, 2, *vocab.FindLabel("a"), 0),
      Sge(2, 3, *vocab.FindLabel("b"), 1),
  };
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream);
  // Join valid only while BOTH are alive: a expires at 10.
  EXPECT_EQ(ResultPairsAt(engine.results(0), 5).size(), 1u);
  EXPECT_EQ(ResultPairsAt(engine.results(0), 10).size(), 0u);
  for (Timestamp t : {0, 5, 9, 10, 11}) {
    EXPECT_EQ(ResultPairsAt(engine.results(0), t),
              OraclePairsAt(stream, *query, vocab, t))
        << " t=" << t;
  }
}

}  // namespace
}  // namespace sgq
