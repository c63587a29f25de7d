// Tests for a single-query Engine: compilation errors, stream routing,
// metrics accounting, slide boundaries, and randomized PATTERN-vs-oracle
// properties on multi-atom conjunctive queries.

#include <gtest/gtest.h>

#include <random>

#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

TEST(ProcessorTest, CompileRejectsMalformedPlans) {
  Vocabulary vocab;
  LabelId a = *vocab.InternInputLabel("a");
  // PATH over a label its children do not produce.
  LabelId out = *vocab.InternDerivedLabel("out");
  std::vector<LogicalPlan> children;
  children.push_back(MakeWScan(a, WindowSpec(10, 1)));
  LabelId other = *vocab.InternInputLabel("zzz");
  auto bad = MakePath(out, Regex::Plus(Regex::Label(other)),
                      std::move(children));
  Engine engine;
  EXPECT_FALSE(engine.AddPlan(*bad, vocab).ok());
}

TEST(ProcessorTest, DiscardsUnreferencedLabels) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  LabelId noise = *vocab.InternInputLabel("noise");
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.Push(Sge(1, 2, *vocab.FindLabel("a"), 0));
  engine.Push(Sge(3, 4, noise, 1));
  EXPECT_EQ(engine.edges_pushed(), 2u);
  EXPECT_EQ(engine.edges_processed(), 1u);
  EXPECT_EQ(engine.results_emitted(0), 1u);
}

TEST(ProcessorTest, SlideLatenciesRecordedPerBoundary) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(10, 5), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  LabelId a = *vocab.FindLabel("a");
  for (Timestamp t : {0, 3, 7, 11, 22}) engine.Push(Sge(1, 2, a, t));
  // Boundaries crossed: 5, 10, 15, 20 -> four recorded slides.
  EXPECT_EQ(engine.slide_latencies().count(), 4u);
}

TEST(ProcessorTest, AdvanceToDrainsWithoutInput) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(6, 2), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.Push(Sge(1, 2, *vocab.FindLabel("a"), 1));
  engine.AdvanceTo(40);
  EXPECT_GE(engine.slide_latencies().count(), 19u);
  // Results survive as the recorded interval; state may be purged.
  EXPECT_EQ(ResultPairsAt(engine.results(0), 3).size(), 1u);
  EXPECT_EQ(ResultPairsAt(engine.results(0), 30).size(), 0u);
}

TEST(ProcessorTest, ExplainDescribesPlan) {
  Vocabulary vocab;
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  const std::string plan = engine.Explain();
  EXPECT_NE(plan.find("PATH"), std::string::npos);
  EXPECT_NE(plan.find("WSCAN"), std::string::npos);
}

TEST(ProcessorTest, TakeResultsDrainsBuffer) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.Push(Sge(1, 2, *vocab.FindLabel("a"), 0));
  EXPECT_EQ(engine.TakeResults(0).size(), 1u);
  EXPECT_TRUE(engine.results(0).empty());
  // Metrics keep counting across takes.
  EXPECT_EQ(engine.results_emitted(0), 1u);
}

TEST(ProcessorTest, RejectsOutOfOrderTimestamps) {
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  LabelId a = *vocab.FindLabel("a");
  engine.Push(Sge(1, 2, a, 10));
  EXPECT_DEATH(engine.Push(Sge(1, 2, a, 5)), "ordered");
}

// ---------------------------------------------------------------------------
// Randomized conjunctive patterns vs the oracle.
// ---------------------------------------------------------------------------

class RandomPatternTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternTest, RandomConjunctiveQueryMatchesOracle) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 3000;
  opt.num_vertices = 7;
  opt.num_labels = 3;
  opt.num_edges = 70;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  // Build a random conjunctive rule with 2-4 atoms over variables
  // x0..x3; head endpoints drawn from used variables.
  const char* vars[] = {"x0", "x1", "x2", "x3"};
  const char* labels[] = {"a", "b", "c"};
  const int num_atoms = 2 + static_cast<int>(rng() % 3);
  std::vector<std::string> used;
  std::string body;
  for (int i = 0; i < num_atoms; ++i) {
    if (i > 0) body += ", ";
    const char* src = vars[rng() % 4];
    const char* trg = vars[rng() % 4];
    body += std::string(labels[rng() % 3]) + "(" + src + "," + trg + ")";
    used.push_back(src);
    used.push_back(trg);
  }
  const std::string head_src = used[rng() % used.size()];
  const std::string head_trg = used[rng() % used.size()];
  const std::string text =
      "Answer(" + head_src + "," + head_trg + ") <- " + body;

  auto query = MakeQuery(text, WindowSpec(14, 1), &vocab);
  ASSERT_TRUE(query.ok()) << text;
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok()) << text;
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);
  for (Timestamp t : SampleTimes(*stream, 8)) {
    ASSERT_EQ(ResultPairsAt(engine.results(0), t),
              OraclePairsAt(*stream, *query, vocab, t))
        << "query: " << text << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace sgq
