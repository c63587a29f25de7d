// Tests for the one-time oracle (query/oracle.h), the reference Q_O that
// every snapshot-reducibility check (Def. 14) compares the engine with:
// hand-computed answers, the rule shapes a variable-slot evaluator can get
// wrong, a projection guard, and answers frozen over a generated corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "model/snapshot_graph.h"
#include "query/oracle.h"
#include "query/rq.h"
#include "regex/dfa.h"
#include "regex/regex.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  LabelId L(const char* name) { return *vocab_.InternInputLabel(name); }
  VertexId V(const char* name) { return *vocab_.InternVertex(name); }
  Vocabulary vocab_;
};

TEST_F(OracleTest, TransitiveClosureOnChainAndCycle) {
  VertexPairSet rel = {{1, 2}, {2, 3}, {3, 1}};
  VertexPairSet tc = TransitiveClosure(rel);
  // 3-cycle: everything reaches everything, including itself.
  EXPECT_EQ(tc.size(), 9u);
  EXPECT_TRUE(tc.count({1, 1}) > 0);
}

TEST_F(OracleTest, EvaluatesConjunctiveTriangle) {
  // Example 6's recentLiker triangle: likes(u1,m), posts(u2,m), f(u1,u2).
  LabelId likes = L("likes"), posts = L("posts"), follows = L("follows");
  VertexId u = V("u"), v = V("v"), b = V("b");
  SnapshotGraph g;
  g.AddEdge(EdgeRef(u, b, likes));
  g.AddEdge(EdgeRef(v, b, posts));
  g.AddEdge(EdgeRef(u, v, follows));
  auto rq = ParseRq(
      "Answer(x,y) <- likes(x,m), posts(y,m), follows(x,y)", &vocab_);
  ASSERT_TRUE(rq.ok());
  auto result = EvaluateOneTime(*rq, g, vocab_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->count({u, v}) > 0);
}

TEST_F(OracleTest, EvaluatesClosureInRule) {
  LabelId e = L("e"), f = L("f");
  SnapshotGraph g;
  g.AddEdge(EdgeRef(1, 2, e));
  g.AddEdge(EdgeRef(2, 3, e));
  g.AddEdge(EdgeRef(3, 4, f));
  auto rq = ParseRq("Answer(x,y) <- e+(x,z), f(z,y)", &vocab_);
  ASSERT_TRUE(rq.ok());
  auto result = EvaluateOneTime(*rq, g, vocab_);
  ASSERT_TRUE(result.ok());
  // e+ reaches 3 from 1 and 2; f hops to 4.
  VertexPairSet expected = {{1, 4}, {2, 4}};
  EXPECT_EQ(*result, expected);
}

TEST_F(OracleTest, StarInBodyIncludesZeroSteps) {
  LabelId a = L("a"), b = L("b");
  SnapshotGraph g;
  g.AddEdge(EdgeRef(1, 2, a));
  g.AddEdge(EdgeRef(2, 3, b));
  auto rq = ParseRq("Answer(x,y) <- a(x,z), b*(z,y)", &vocab_);
  ASSERT_TRUE(rq.ok());
  auto result = EvaluateOneTime(*rq, g, vocab_);
  ASSERT_TRUE(result.ok());
  // Zero b-steps: (1,2); one b-step: (1,3).
  VertexPairSet expected = {{1, 2}, {1, 3}};
  EXPECT_EQ(*result, expected);
}

TEST_F(OracleTest, RpqProductBfsMatchesHandComputation) {
  LabelId a = L("a"), b = L("b");
  SnapshotGraph g;
  g.AddEdge(EdgeRef(1, 2, a));
  g.AddEdge(EdgeRef(2, 3, b));
  g.AddEdge(EdgeRef(3, 2, b));
  Vocabulary tmp = vocab_;
  auto regex = ParseRegex("a b*", &tmp);
  ASSERT_TRUE(regex.ok());
  Dfa dfa = Dfa::FromRegex(*regex);
  VertexPairSet result = EvaluateRpq(g, dfa);
  VertexPairSet expected = {{1, 2}, {1, 3}};
  EXPECT_EQ(result, expected);
}

TEST_F(OracleTest, WitnessPathValidation) {
  LabelId a = L("a");
  SnapshotGraph g;
  g.AddEdge(EdgeRef(1, 2, a));
  g.AddEdge(EdgeRef(2, 3, a));
  EXPECT_TRUE(IsValidWitnessPath(g, 1, 3,
                                 {EdgeRef(1, 2, a), EdgeRef(2, 3, a)}));
  EXPECT_FALSE(IsValidWitnessPath(g, 1, 3, {EdgeRef(1, 2, a)}));
  EXPECT_FALSE(IsValidWitnessPath(
      g, 1, 3, {EdgeRef(1, 2, a), EdgeRef(9, 3, a)}));  // broken chain
  EXPECT_FALSE(IsValidWitnessPath(g, 1, 3, {}));
}

// ---------------------------------------------------------------------------
// Rule shapes
// ---------------------------------------------------------------------------

class OracleRuleTest : public OracleTest {
 protected:
  /// Evaluates `text` on `g_`; fails the test on a parse or eval error.
  VertexPairSet Eval(const char* text) {
    auto rq = ParseRq(text, &vocab_);
    EXPECT_TRUE(rq.ok()) << rq.status().ToString();
    if (!rq.ok()) return {};
    auto result = EvaluateOneTime(*rq, g_, vocab_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : VertexPairSet{};
  }
  SnapshotGraph g_;
};

TEST_F(OracleRuleTest, SelfLoopAtomAndDiagonalHead) {
  const LabelId a = L("a"), b = L("b");
  g_.AddEdge(EdgeRef(1, 1, a));
  g_.AddEdge(EdgeRef(1, 2, a));
  g_.AddEdge(EdgeRef(2, 3, a));
  g_.AddEdge(EdgeRef(3, 3, a));
  g_.AddEdge(EdgeRef(1, 4, b));
  g_.AddEdge(EdgeRef(2, 1, b));
  g_.AddEdge(EdgeRef(3, 2, b));
  // a(x,x) first: no variable is bound yet, so only loops match.
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,x), b(x,y)"),
            (VertexPairSet{{1, 4}, {3, 2}}));
  // a(y,y) last: both ends are bound by b, so it is a membership test.
  EXPECT_EQ(Eval("Answer(x,y) <- b(x,y), a(y,y)"), (VertexPairSet{{2, 1}}));
  // A diagonal head: x with an a-step to some y that b-steps back to x
  // (3's a-loop has no b-loop to return by).
  EXPECT_EQ(Eval("Answer(x,x) <- a(x,y), b(y,x)"),
            (VertexPairSet{{1, 1}, {2, 2}}));
}

TEST_F(OracleRuleTest, TwoRulesForOneLabelAnswerTheirUnion) {
  const LabelId a = L("a"), b = L("b"), c = L("c");
  g_.AddEdge(EdgeRef(1, 2, a));
  g_.AddEdge(EdgeRef(3, 4, b));
  g_.AddEdge(EdgeRef(2, 5, c));
  g_.AddEdge(EdgeRef(4, 6, c));
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,y)\nAnswer(x,y) <- b(y,x)"),
            (VertexPairSet{{1, 2}, {4, 3}}));
  // Two rules for an intermediate label: a later rule reads both.
  EXPECT_EQ(Eval("D(x,y) <- a(x,y)\nD(x,y) <- b(x,y)\n"
                 "Answer(x,y) <- D(x,z), c(z,y)"),
            (VertexPairSet{{1, 5}, {3, 6}}));
}

TEST_F(OracleRuleTest, LaterRuleReadsDerivedLabel) {
  const LabelId a = L("a"), b = L("b"), c = L("c");
  g_.AddEdge(EdgeRef(1, 2, a));
  g_.AddEdge(EdgeRef(1, 3, a));
  g_.AddEdge(EdgeRef(2, 4, b));
  g_.AddEdge(EdgeRef(3, 4, b));
  g_.AddEdge(EdgeRef(4, 5, c));
  g_.AddEdge(EdgeRef(6, 5, c));
  // D = {(1,4)}, derived through two different middle vertices.
  EXPECT_EQ(Eval("D(x,y) <- a(x,z), b(z,y)\nAnswer(x,y) <- D(x,z), c(z,y)"),
            (VertexPairSet{{1, 5}}));
  // The derived label read from its target side.
  EXPECT_EQ(Eval("D(x,y) <- a(x,z), b(z,y)\nAnswer(x,y) <- c(w,y), D(x,w)"),
            (VertexPairSet{{1, 5}}));
  EXPECT_EQ(Eval("D(x,y) <- a(x,z), b(z,y)\nAnswer(y,x) <- D(x,w), c(w,y)"),
            (VertexPairSet{{5, 1}}));
}

TEST_F(OracleRuleTest, ClosureOverDerivedLabel) {
  const LabelId a = L("a"), b = L("b");
  // D(x,y) <- a(x,z), b(z,y) links 1 -> 3 -> 5 -> 1: a 3-cycle of D.
  g_.AddEdge(EdgeRef(1, 2, a));
  g_.AddEdge(EdgeRef(2, 3, b));
  g_.AddEdge(EdgeRef(3, 4, a));
  g_.AddEdge(EdgeRef(4, 5, b));
  g_.AddEdge(EdgeRef(5, 6, a));
  g_.AddEdge(EdgeRef(6, 1, b));
  const VertexPairSet got =
      Eval("D(x,y) <- a(x,z), b(z,y)\nAnswer(x,y) <- D+(x,y)");
  VertexPairSet expected;
  for (VertexId s : {1u, 3u, 5u}) {
    for (VertexId t : {1u, 3u, 5u}) expected.insert({s, t});
  }
  EXPECT_EQ(got, expected);
  // The closure joined onward.
  EXPECT_EQ(Eval("D(x,y) <- a(x,z), b(z,y)\n"
                 "Answer(x,y) <- D+(x,w), a(w,y)"),
            (VertexPairSet{{1, 2}, {1, 4}, {1, 6}, {3, 2}, {3, 4}, {3, 6},
                           {5, 2}, {5, 4}, {5, 6}}));
}

TEST_F(OracleRuleTest, EmptyRelationInTheMiddleEmptiesTheRule) {
  const LabelId a = L("a"), b = L("b"), c = L("c");
  L("e");  // an input label without edges
  g_.AddEdge(EdgeRef(1, 2, a));
  g_.AddEdge(EdgeRef(2, 3, b));
  g_.AddEdge(EdgeRef(3, 4, c));
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,z), b(z,w), c(w,y)"),
            (VertexPairSet{{1, 4}}));
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,z), e(z,w), c(w,y)"), VertexPairSet{});
  // a has edges, but no second a-step leaves 2.
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,z), a(z,w), c(w,y)"), VertexPairSet{});
  // An empty atom with no bound variable, and an empty closure.
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,y), e(z,w)"), VertexPairSet{});
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,z), e+(z,w), c(w,y)"), VertexPairSet{});
  // The other rule for the label still answers.
  EXPECT_EQ(Eval("Answer(x,y) <- a(x,z), e(z,y)\nAnswer(x,y) <- b(x,y)"),
            (VertexPairSet{{2, 3}}));
}

// A 4-atom chain over five layers of kWidth vertices, each layer joined to
// the next by every edge of one label: the answer is kWidth^2 pairs, but
// the chain has kWidth^5 full bindings. One string-keyed hash map per full
// binding needed 518 MB and 1.0 s at kWidth = 16 (measured with a
// memory-bounded run of that evaluator); projecting after each atom keeps
// kWidth^2 rows.
TEST_F(OracleRuleTest, ChainOverCompleteLayersProjectsAfterEachAtom) {
  constexpr VertexId kWidth = 16;
  const char* const labels[] = {"l1", "l2", "l3", "l4"};
  for (VertexId layer = 0; layer < 4; ++layer) {
    const LabelId l = L(labels[layer]);
    for (VertexId i = 0; i < kWidth; ++i) {
      for (VertexId j = 0; j < kWidth; ++j) {
        g_.AddEdge(EdgeRef(layer * kWidth + i, (layer + 1) * kWidth + j, l));
      }
    }
  }
#if defined(__linux__)
  struct rusage before;
  getrusage(RUSAGE_SELF, &before);
#endif
  const VertexPairSet got =
      Eval("Answer(x,y) <- l1(x,a), l2(a,b), l3(b,c), l4(c,y)");
  ASSERT_EQ(got.size(), std::size_t{kWidth} * kWidth);
  EXPECT_EQ(got.begin()->first, 0u);
  EXPECT_EQ(got.rbegin()->second, 5 * kWidth - 1);
#if defined(__linux__)
  // The high-water mark may not rise by the hundreds of MB that full
  // bindings take (ru_maxrss is in KiB).
  struct rusage after;
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 128 * 1024);
#endif
}

// ---------------------------------------------------------------------------
// Frozen answers
// ---------------------------------------------------------------------------

/// The streams of the frozen corpus: SO with and without 15% deletions,
/// and SNB, each small enough to evaluate every query at three instants.
struct CorpusStream {
  const char* name;
  bool snb;
  double deletion_probability;
};
const CorpusStream kCorpusStreams[] = {
    {"so", false, 0.0}, {"so-del", false, 0.15}, {"snb", true, 0.0}};

InputStream GenerateCorpusStream(const CorpusStream& s, Vocabulary* vocab) {
  if (s.snb) {
    SnbOptions o;
    o.seed = 5;
    o.num_persons = 60;
    o.num_events = 4000;
    return *GenerateSnbStream(o, vocab);
  }
  SoOptions o;
  o.seed = 5;
  o.num_vertices = 200;
  o.num_edges = 4000;
  o.deletion_probability = s.deletion_probability;
  return *GenerateSoStream(o, vocab);
}

/// The dataset's Table-1 queries, then the plan gallery's (workload/
/// plan_gallery.h) as rules over its labels a, b, c: Q2's canonical UNION
/// as two rules for Answer, and Q4 = (a.b.c)+ split as P2 (a.(b.c))+ and
/// P3 ((a.b).c)+.
std::vector<BenchQuery> CorpusQueries(const CorpusStream& s) {
  std::vector<BenchQuery> queries = s.snb ? SnbQuerySet() : SoQuerySet();
  const std::string a = s.snb ? "likes" : "a2q";
  const std::string b = s.snb ? "replyOf" : "c2q";
  const std::string c = s.snb ? "hasCreator" : "c2a";
  queries.push_back({"Q2-union", "Answer(x,y) <- " + a + "(x,z), " + b +
                                     "+(z,y)\nAnswer(x,y) <- " + a +
                                     "(x,y)"});
  queries.push_back({"Q4-P2", "BC(x0,x2) <- " + b + "(x0,x1), " + c +
                                  "(x1,x2)\nABC(x,y) <- " + a +
                                  "(x,z), BC(z,y)\nAnswer(x,y) <- ABC+(x,y)"});
  queries.push_back({"Q4-P3", "AB(x0,x2) <- " + a + "(x0,x1), " + b +
                                  "(x1,x2)\nABC3(x,y) <- AB(x,z), " + c +
                                  "(z,y)\nAnswer(x,y) <- ABC3+(x,y)"});
  return queries;
}

/// testing_util::Fingerprint of the answer as "src trg" lines in set order.
uint64_t AnswerFingerprint(const VertexPairSet& pairs) {
  std::string text;
  for (const auto& [s, t] : pairs) {
    text += std::to_string(s) + " " + std::to_string(t) + "\n";
  }
  return testing_util::Fingerprint(text);
}

struct FrozenAnswer {
  const char* stream;  ///< kCorpusStreams name
  int instant;         ///< k: the snapshot at first + (last - first)(k+1)/4
  const char* query;   ///< CorpusQueries name
  std::size_t pairs;
  uint64_t fingerprint;  ///< AnswerFingerprint
};

// Recorded with the evaluator that kept one string-keyed hash map per
// full rule binding, before the slot-table evaluator replaced it; window
// 8 days, slide 1 day.
const FrozenAnswer kFrozenAnswers[] = {
    {"so", 0, "Q1", 14015, 0x166dd7361f3ebf04ull},
    {"so", 0, "Q2", 9022, 0x422f1da5e21165daull},
    {"so", 0, "Q3", 11621, 0x66bcd27e72fbd658ull},
    {"so", 0, "Q4", 5947, 0xedd5480f1f9d8486ull},
    {"so", 0, "Q5", 25, 0x608bb1023b80cc5cull},
    {"so", 0, "Q6", 213, 0x42caf67779d6ccddull},
    {"so", 0, "Q7", 1773, 0x60fd51768dc3f2d4ull},
    {"so", 0, "Q2-union", 9022, 0x422f1da5e21165daull},
    {"so", 0, "Q4-P2", 5947, 0xedd5480f1f9d8486ull},
    {"so", 0, "Q4-P3", 5947, 0xedd5480f1f9d8486ull},
    {"so", 1, "Q1", 16024, 0xa7d11a0f074b189full},
    {"so", 1, "Q2", 8382, 0x3d9b3ddcbcc52fbeull},
    {"so", 1, "Q3", 12501, 0x84ed3609d170b21cull},
    {"so", 1, "Q4", 5603, 0xf8c6390c2d3c43c8ull},
    {"so", 1, "Q5", 12, 0xee56dd5a2341bf66ull},
    {"so", 1, "Q6", 173, 0xc5d2f408b1aeb5d3ull},
    {"so", 1, "Q7", 1670, 0x4c7e28215ffd325eull},
    {"so", 1, "Q2-union", 8382, 0x3d9b3ddcbcc52fbeull},
    {"so", 1, "Q4-P2", 5603, 0xf8c6390c2d3c43c8ull},
    {"so", 1, "Q4-P3", 5603, 0xf8c6390c2d3c43c8ull},
    {"so", 2, "Q1", 17976, 0x6224108ec44bf482ull},
    {"so", 2, "Q2", 7273, 0x15124239a1d4b452ull},
    {"so", 2, "Q3", 11938, 0x6ea77031e150d437ull},
    {"so", 2, "Q4", 5993, 0x52042a79b42604a1ull},
    {"so", 2, "Q5", 7, 0xb3f8adf17cd351beull},
    {"so", 2, "Q6", 146, 0xa3477412fb536f8aull},
    {"so", 2, "Q7", 966, 0xefa3d376166a94b7ull},
    {"so", 2, "Q2-union", 7273, 0x15124239a1d4b452ull},
    {"so", 2, "Q4-P2", 5993, 0x52042a79b42604a1ull},
    {"so", 2, "Q4-P3", 5993, 0x52042a79b42604a1ull},
    {"so-del", 0, "Q1", 8012, 0x6dcf5aa0180b8e2dull},
    {"so-del", 0, "Q2", 6521, 0xff136319a9489a56ull},
    {"so-del", 0, "Q3", 8621, 0xe27b07755309ef0eull},
    {"so-del", 0, "Q4", 2739, 0x5bbac2f49b77042aull},
    {"so-del", 0, "Q5", 17, 0x2427d5b3539a065eull},
    {"so-del", 0, "Q6", 89, 0x39fcd2c2597c8817ull},
    {"so-del", 0, "Q7", 696, 0x14f2b4c272d61fcbull},
    {"so-del", 0, "Q2-union", 6521, 0xff136319a9489a56ull},
    {"so-del", 0, "Q4-P2", 2739, 0x5bbac2f49b77042aull},
    {"so-del", 0, "Q4-P3", 2739, 0x5bbac2f49b77042aull},
    {"so-del", 1, "Q1", 14107, 0xb3f4ae2ffd83c7f6ull},
    {"so-del", 1, "Q2", 7171, 0x3fd38b2c86f619bfull},
    {"so-del", 1, "Q3", 11936, 0xc4cb38db2aabcc19ull},
    {"so-del", 1, "Q4", 5594, 0xb0f795b1ce394f0aull},
    {"so-del", 1, "Q5", 7, 0x36b52f7397b1293bull},
    {"so-del", 1, "Q6", 183, 0x7c156ef3b17d6c3aull},
    {"so-del", 1, "Q7", 823, 0x86e6e1f5501df2cfull},
    {"so-del", 1, "Q2-union", 7171, 0x3fd38b2c86f619bfull},
    {"so-del", 1, "Q4-P2", 5594, 0xb0f795b1ce394f0aull},
    {"so-del", 1, "Q4-P3", 5594, 0xb0f795b1ce394f0aull},
    {"so-del", 2, "Q1", 17256, 0xc1cfcf9a549218fdull},
    {"so-del", 2, "Q2", 6677, 0x4c5779dfbf9b95d1ull},
    {"so-del", 2, "Q3", 10829, 0x237ded046c7de756ull},
    {"so-del", 2, "Q4", 5108, 0x8c931f9151976705ull},
    {"so-del", 2, "Q5", 12, 0xf1b7f2565db092d0ull},
    {"so-del", 2, "Q6", 175, 0xc843757b68021673ull},
    {"so-del", 2, "Q7", 734, 0x1ca0df169801d459ull},
    {"so-del", 2, "Q2-union", 6677, 0x4c5779dfbf9b95d1ull},
    {"so-del", 2, "Q4-P2", 5108, 0x8c931f9151976705ull},
    {"so-del", 2, "Q4-P3", 5108, 0x8c931f9151976705ull},
    {"snb", 0, "Q1", 333, 0xfe6f436a1f815602ull},
    {"snb", 0, "Q2", 578, 0xc95895c1f2dd0b83ull},
    {"snb", 0, "Q3", 966, 0xcc66ddedabfdd451ull},
    {"snb", 0, "Q4", 2366, 0xa244d16f05a8d62dull},
    {"snb", 0, "Q5", 11, 0x149e3245f37d09fcull},
    {"snb", 0, "Q6", 59, 0xf1a843562bd69a36ull},
    {"snb", 0, "Q7", 604, 0x2350fbcf214a71fcull},
    {"snb", 0, "Q2-union", 578, 0xc95895c1f2dd0b83ull},
    {"snb", 0, "Q4-P2", 1646, 0x3a05aa2de46b400full},
    {"snb", 0, "Q4-P3", 1646, 0x3a05aa2de46b400full},
    {"snb", 1, "Q1", 412, 0x91c25984fcb8d46aull},
    {"snb", 1, "Q2", 722, 0x50e8d8179f229487ull},
    {"snb", 1, "Q3", 1200, 0xc3cd888c657fc792ull},
    {"snb", 1, "Q4", 2586, 0xa6c6631b49931d0eull},
    {"snb", 1, "Q5", 18, 0xe29947bb96002677ull},
    {"snb", 1, "Q6", 72, 0x0a139d9e840db754ull},
    {"snb", 1, "Q7", 787, 0xa085495c968a2ea4ull},
    {"snb", 1, "Q2-union", 722, 0x50e8d8179f229487ull},
    {"snb", 1, "Q4-P2", 2756, 0x598af91f88c37604ull},
    {"snb", 1, "Q4-P3", 2756, 0x598af91f88c37604ull},
    {"snb", 2, "Q1", 413, 0x5ed79e1c2c71820full},
    {"snb", 2, "Q2", 630, 0x48409822cf54c5faull},
    {"snb", 2, "Q3", 1093, 0xc260bd239aa76796ull},
    {"snb", 2, "Q4", 2118, 0x67c5dea05eb5f474ull},
    {"snb", 2, "Q5", 14, 0x469160874f002a58ull},
    {"snb", 2, "Q6", 48, 0x44866d005387012cull},
    {"snb", 2, "Q7", 559, 0x6c09331d2b02b516ull},
    {"snb", 2, "Q2-union", 630, 0x48409822cf54c5faull},
    {"snb", 2, "Q4-P2", 2261, 0x089b431b4b4a4f2dull},
    {"snb", 2, "Q4-P3", 2261, 0x089b431b4b4a4f2dull},
};

TEST(OracleFrozenTest, ReproducesFrozenAnswersOverGeneratedCorpus) {
  const WindowSpec window(8 * kDay, kDay);
  std::size_t row = 0;
  for (const CorpusStream& s : kCorpusStreams) {
    Vocabulary vocab;
    const InputStream stream = GenerateCorpusStream(s, &vocab);
    ASSERT_FALSE(stream.empty());
    StreamingGraphQuery windowing;
    windowing.window = window;
    const SgtStream windowed = testing_util::ApplyWScan(stream, windowing);
    const Timestamp first = stream.front().t;
    const Timestamp last = stream.back().t;
    for (int k = 0; k < 3; ++k) {
      const SnapshotGraph g =
          SnapshotGraph::At(windowed, first + (last - first) * (k + 1) / 4);
      for (const BenchQuery& q : CorpusQueries(s)) {
        ASSERT_LT(row, std::size(kFrozenAnswers));
        const FrozenAnswer& frozen = kFrozenAnswers[row++];
        const std::string context = std::string(s.name) + " instant " +
                                    std::to_string(k) + " " + q.name;
        ASSERT_EQ(std::string(frozen.stream) + " instant " +
                      std::to_string(frozen.instant) + " " + frozen.query,
                  context);
        auto rq = ParseRq(q.text, &vocab);
        ASSERT_TRUE(rq.ok()) << context << ": " << rq.status().ToString();
        auto answer = EvaluateOneTime(*rq, g, vocab);
        ASSERT_TRUE(answer.ok()) << context;
        EXPECT_EQ(answer->size(), frozen.pairs) << context;
        EXPECT_EQ(AnswerFingerprint(*answer), frozen.fingerprint) << context;
      }
    }
  }
  EXPECT_EQ(row, std::size(kFrozenAnswers));
}

}  // namespace
}  // namespace sgq
