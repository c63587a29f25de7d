// Tests for the SGQ query model: RQ parsing/validation (Def. 13), star
// normalization and the G-CORE front-end (§4.2). The one-time oracle has
// its own file (oracle_test.cc).

#include <gtest/gtest.h>

#include "query/gcore.h"
#include "query/normalize.h"
#include "query/rq.h"

namespace sgq {
namespace {

// ---------------------------------------------------------------------------
// RQ parsing and validation
// ---------------------------------------------------------------------------

TEST(RqParserTest, ParsesExample2) {
  // The real-time notification RQ of the paper (Example 2).
  Vocabulary vocab;
  auto rq = ParseRq(
      "RL(u1,u2) <- likes(u1,m1), follows+(u1,u2) as FP, posts(u2,m1)\n"
      "Notify(u,m) <- RL+(u,v) as RLP, posts(v,m)\n"
      "Answer(u,m) <- Notify(u,m)\n",
      &vocab);
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  EXPECT_EQ(rq->rules().size(), 3u);
  EXPECT_TRUE(vocab.IsInputLabel(*vocab.FindLabel("likes")));
  EXPECT_TRUE(vocab.IsInputLabel(*vocab.FindLabel("follows")));
  EXPECT_FALSE(vocab.IsInputLabel(*vocab.FindLabel("RL")));
  EXPECT_FALSE(vocab.IsInputLabel(*vocab.FindLabel("FP")));
  EXPECT_FALSE(vocab.IsInputLabel(*vocab.FindLabel("Answer")));
}

TEST(RqParserTest, AcceptsAnsAsAnswer) {
  Vocabulary vocab;
  auto rq = ParseRq("Ans(x,y) <- e(x,y)", &vocab);
  ASSERT_TRUE(rq.ok());
  EXPECT_EQ(rq->answer(), *vocab.FindLabel("Ans"));
}

TEST(RqParserTest, AutoGeneratesClosureAliases) {
  Vocabulary vocab;
  auto rq = ParseRq("Answer(x,y) <- e+(x,y)", &vocab);
  ASSERT_TRUE(rq.ok());
  const BodyAtom& atom = rq->rules()[0].body[0];
  EXPECT_EQ(atom.closure, ClosureKind::kPlus);
  EXPECT_NE(atom.alias, kInvalidLabel);
  EXPECT_FALSE(vocab.IsInputLabel(atom.alias));
}

TEST(RqParserTest, RejectsMissingAnswer) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseRq("R(x,y) <- e(x,y)", &vocab).ok());
}

TEST(RqParserTest, RejectsUnsafeHead) {
  Vocabulary vocab;
  // Head variable z does not occur in the body.
  EXPECT_FALSE(ParseRq("Answer(x,z) <- e(x,y)", &vocab).ok());
}

TEST(RqParserTest, RejectsRecursion) {
  // Direct recursion R <- R is outside RQ (Def. 13: non-recursive).
  Vocabulary vocab;
  auto rq = ParseRq(
      "R(x,y) <- R(x,z), e(z,y)\n"
      "Answer(x,y) <- R(x,y)",
      &vocab);
  EXPECT_FALSE(rq.ok());
}

TEST(RqParserTest, RejectsMutualRecursion) {
  Vocabulary vocab;
  auto rq = ParseRq(
      "P(x,y) <- Q(x,y)\n"
      "Q(x,y) <- P(x,z), e(z,y)\n"
      "Answer(x,y) <- P(x,y)",
      &vocab);
  EXPECT_FALSE(rq.ok());
}

TEST(RqParserTest, RejectsSyntaxErrors) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseRq("Answer(x,y)", &vocab).ok());
  EXPECT_FALSE(ParseRq("Answer(x,y) <- ", &vocab).ok());
  EXPECT_FALSE(ParseRq("Answer(x y) <- e(x,y)", &vocab).ok());
  EXPECT_FALSE(ParseRq("Answer+(x,y) <- e(x,y)", &vocab).ok());
}

TEST(RqTest, TopologicalOrderRespectsDependencies) {
  Vocabulary vocab;
  auto rq = ParseRq(
      "A(x,y) <- e(x,y)\n"
      "B(x,y) <- A+(x,y) as AP\n"
      "Answer(x,y) <- B(x,y), A(x,y)",
      &vocab);
  ASSERT_TRUE(rq.ok());
  auto topo = rq->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  auto pos = [&](const char* name) {
    LabelId l = *vocab.FindLabel(name);
    for (std::size_t i = 0; i < topo->size(); ++i) {
      if ((*topo)[i] == l) return i;
    }
    return topo->size();
  };
  EXPECT_LT(pos("A"), pos("AP"));
  EXPECT_LT(pos("AP"), pos("B"));
  EXPECT_LT(pos("B"), pos("Answer"));
}

// ---------------------------------------------------------------------------
// Star normalization
// ---------------------------------------------------------------------------

TEST(NormalizeTest, StarAtomSplitsIntoPlusAndUnification) {
  Vocabulary vocab;
  auto rq = ParseRq("Answer(x,y) <- a(x,z), b*(z,y)", &vocab);
  ASSERT_TRUE(rq.ok());
  RegularQuery norm = ExpandStarClosures(*rq);
  // Two rules: a . b+ and the zero-step variant a with y unified to z.
  ASSERT_EQ(norm.rules().size(), 2u);
  bool found_plus = false, found_unified = false;
  for (const Rule& r : norm.rules()) {
    if (r.body.size() == 2) {
      EXPECT_EQ(r.body[1].closure, ClosureKind::kPlus);
      found_plus = true;
    } else {
      ASSERT_EQ(r.body.size(), 1u);
      // Head trg unified with the a-atom's target variable.
      EXPECT_EQ(r.head_trg, r.body[0].trg);
      found_unified = true;
    }
  }
  EXPECT_TRUE(found_plus);
  EXPECT_TRUE(found_unified);
}

TEST(NormalizeTest, BareTopLevelStarDropsEmptyVariant) {
  Vocabulary vocab;
  auto rq = ParseRq("Answer(x,y) <- a*(x,y)", &vocab);
  ASSERT_TRUE(rq.ok());
  RegularQuery norm = ExpandStarClosures(*rq);
  // The zero-step variant would have an empty body: dropped.
  ASSERT_EQ(norm.rules().size(), 1u);
  EXPECT_EQ(norm.rules()[0].body[0].closure, ClosureKind::kPlus);
}

TEST(NormalizeTest, TwoStarsGiveFourVariantsMinusEmpty) {
  Vocabulary vocab;
  auto rq = ParseRq("Answer(x,y) <- a*(x,z), b*(z,y)", &vocab);
  ASSERT_TRUE(rq.ok());
  RegularQuery norm = ExpandStarClosures(*rq);
  // a+b+, a+, b+ — the both-empty variant has an empty body and is dropped.
  EXPECT_EQ(norm.rules().size(), 3u);
}

// ---------------------------------------------------------------------------
// G-CORE front-end
// ---------------------------------------------------------------------------

TEST(GCoreTest, ParsesFigure6) {
  // The paper's Figure 6 query (RL path + notification), windows in hours.
  Vocabulary vocab;
  auto q = ParseGCore(
      "PATH RL = (u1)-/<:follows*>/->(u2), "
      "(u1)-[:likes]->(m1)<-[:posts]-(u2)\n"
      "CONSTRUCT (u)-[:notify]->(m)\n"
      "MATCH (u)-/<~RL+>/->(v), (v)-[:posts]->(m)\n"
      "ON social_stream WINDOW (24 HOURS) SLIDE (1 HOURS)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window.size, 24);
  EXPECT_EQ(q->window.slide, 1);
  // RL rule + notify rule + Answer rule.
  EXPECT_EQ(q->rq.rules().size(), 3u);
  EXPECT_TRUE(vocab.IsInputLabel(*vocab.FindLabel("follows")));
  EXPECT_FALSE(vocab.IsInputLabel(*vocab.FindLabel("RL")));
  EXPECT_FALSE(vocab.IsInputLabel(*vocab.FindLabel("notify")));
  EXPECT_TRUE(q->rq.Validate(vocab).ok());
}

TEST(GCoreTest, ParsesFigure7MultiStreamWithOptionals) {
  // Example 4: two streams with different windows, OPTIONAL alternatives.
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (u1)-[:recommendation]->(p)\n"
      "MATCH OPTIONAL (u1)-[:follows]->(u2) "
      "OPTIONAL (u1)-[:likes]->(m)<-[:posts]-(u2)\n"
      "ON social_stream WINDOW (24 HOURS)\n"
      "MATCH (c)-[:purchase]->(p)\n"
      "ON tx_stream WINDOW (30 DAYS) SLIDE (1 DAYS)\n"
      "WHERE (u2) = (c)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Two OPTIONAL alternatives -> two recommendation rules (+ Answer).
  EXPECT_EQ(q->rq.rules().size(), 3u);
  EXPECT_EQ(q->window.size, 24);
  // purchase carries the second group's window as a per-label override.
  LabelId purchase = *vocab.FindLabel("purchase");
  ASSERT_TRUE(q->per_label_windows.count(purchase) > 0);
  EXPECT_EQ(q->per_label_windows.at(purchase).size, 30 * 24);
  EXPECT_EQ(q->per_label_windows.at(purchase).slide, 24);
}

TEST(GCoreTest, ReversedEdgePatternSwapsEndpoints) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (m)-[:out]->(u)\n"
      "MATCH (m)<-[:posts]-(u)\n"
      "ON s WINDOW (2 HOURS)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // (m)<-[:posts]-(u) means posts(u, m).
  const Rule* out_rule = nullptr;
  for (const Rule& r : q->rq.rules()) {
    if (r.head == *vocab.FindLabel("out")) out_rule = &r;
  }
  ASSERT_NE(out_rule, nullptr);
  EXPECT_EQ(out_rule->body[0].src, "u");
  EXPECT_EQ(out_rule->body[0].trg, "m");
}

TEST(GCoreTest, RejectsUnknownPathName) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (x)-[:o]->(y)\n"
      "MATCH (x)-/<~Nope+>/->(y)\n"
      "ON s WINDOW (2 HOURS)",
      &vocab);
  EXPECT_FALSE(q.ok());
}

TEST(GCoreTest, RejectsMissingMatch) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseGCore("CONSTRUCT (x)-[:o]->(y)", &vocab).ok());
}

}  // namespace
}  // namespace sgq
