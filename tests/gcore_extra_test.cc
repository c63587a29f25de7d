// Additional G-CORE front-end coverage: quantifier spellings, day-based
// windows, WHERE conjunctions, chained reversed edges, and translation of
// parsed queries all the way into runnable plans.

#include <gtest/gtest.h>

#include "algebra/translate.h"
#include "core/engine.h"
#include "query/gcore.h"

namespace sgq {
namespace {

TEST(GCoreExtraTest, AcceptsCaretQuantifiers) {
  // Figure 6 uses <:follows^*>; both '^*' and '*' must parse.
  for (const char* q : {"<:f^*>", "<:f*>", "<:f^+>", "<:f+>"}) {
    Vocabulary vocab;
    std::string text = std::string("CONSTRUCT (x)-[:o]->(y)\n") +
                       "MATCH (x)-/" + q + "/->(y)\n" +
                       "ON s WINDOW (2 HOURS)";
    auto parsed = ParseGCore(text, &vocab);
    ASSERT_TRUE(parsed.ok()) << q << ": " << parsed.status().ToString();
  }
}

TEST(GCoreExtraTest, DayWindowsConvertToHours) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (x)-[:o]->(y)\n"
      "MATCH (x)-[:e]->(y)\n"
      "ON s WINDOW (30 DAYS) SLIDE (1 DAYS)",
      &vocab);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->window.size, 30 * 24);
  EXPECT_EQ(q->window.slide, 24);
}

TEST(GCoreExtraTest, WhereWithAndUnifiesSeveralVariables) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (a)-[:o]->(d)\n"
      "MATCH (a)-[:e]->(b)\n"
      "ON s1 WINDOW (2 HOURS)\n"
      "MATCH (c)-[:f]->(d)\n"
      "ON s2 WINDOW (4 HOURS)\n"
      "WHERE (b) = (c)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The unification makes the body a connected chain a-e->b-f->d.
  bool found = false;
  for (const Rule& r : q->rq.rules()) {
    if (r.body.size() == 2) {
      EXPECT_EQ(r.body[0].trg, r.body[1].src);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GCoreExtraTest, LongChainedPatternParses) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (a)-[:o]->(e)\n"
      "MATCH (a)-[:p]->(b)<-[:q]-(c)-[:r]->(d)<-[:s]-(e)\n"
      "ON s WINDOW (2 HOURS)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Four atoms, with reversed ones swapped: p(a,b), q(c,b), r(c,d), s(e,d).
  const Rule* rule = nullptr;
  for (const Rule& r : q->rq.rules()) {
    if (r.body.size() == 4) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->body[0].src, "a");
  EXPECT_EQ(rule->body[1].src, "c");
  EXPECT_EQ(rule->body[1].trg, "b");
  EXPECT_EQ(rule->body[3].src, "e");
}

TEST(GCoreExtraTest, ParsedQueriesTranslateAndCompile) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "PATH P = (x)-/<:e+>/->(y)\n"
      "CONSTRUCT (x)-[:o]->(y)\n"
      "MATCH (x)-/<~P+>/->(z), (z)-[:f]->(y)\n"
      "ON s WINDOW (6 HOURS)",
      &vocab);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto plan = TranslateToCanonicalPlan(*q, vocab);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Engine engine;
  ASSERT_TRUE(engine.AddPlan(**plan, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  // Smoke: run a tiny stream through it.
  LabelId e = *vocab.FindLabel("e");
  LabelId f = *vocab.FindLabel("f");
  engine.Push(Sge(1, 2, e, 0));
  engine.Push(Sge(2, 3, e, 1));
  engine.Push(Sge(3, 9, f, 2));
  EXPECT_GE(engine.results_emitted(0), 1u);
}

TEST(GCoreExtraTest, RejectsPathConstruct) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (x)-/<:e+>/->(y)\n"
      "MATCH (x)-[:e]->(y)\n"
      "ON s WINDOW (2 HOURS)",
      &vocab);
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kUnsupported);
}

TEST(GCoreExtraTest, RejectsBadWindowUnit) {
  Vocabulary vocab;
  auto q = ParseGCore(
      "CONSTRUCT (x)-[:o]->(y)\n"
      "MATCH (x)-[:e]->(y)\n"
      "ON s WINDOW (2 FORTNIGHTS)",
      &vocab);
  EXPECT_FALSE(q.ok());
}

}  // namespace
}  // namespace sgq
