// Tests for the plan optimizer (core/optimizer.h): cost-model sanity,
// heuristic selection, sampling-based selection, and the invariant that
// the chosen plan is semantically equivalent to the input plan.

#include <gtest/gtest.h>

#include "algebra/translate.h"
#include "core/optimizer.h"
#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

class OptimizerTest : public ::testing::Test {
 protected:
  LogicalPlan Canonical(const char* text) {
    auto query = MakeQuery(text, WindowSpec(16, 1), &vocab_);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    query_ = *query;
    auto plan = TranslateToCanonicalPlan(query_, vocab_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  Vocabulary vocab_;
  StreamingGraphQuery query_;
};

TEST_F(OptimizerTest, CostModelPrefersFewerOperators) {
  // The fused Q4 plan (one PATH over three scans) must cost less than the
  // canonical loop-caching plan (PATH over PATTERN over scans).
  LogicalPlan canonical = Canonical(
      "D(x,y) <- a(x,z1), b(z1,z2), c(z2,y)\n"
      "Answer(x,y) <- D+(x,y)");
  auto fused = OptimizeHeuristic(*canonical, &vocab_, 32);
  ASSERT_TRUE(fused.ok());
  EXPECT_LE(EstimatePlanCost(**fused), EstimatePlanCost(*canonical));
}

TEST_F(OptimizerTest, HeuristicNeverRegressesUnderModel) {
  for (const char* text :
       {"Answer(x,y) <- a+(x,y)", "Answer(x,y) <- a(x,z), b(z,y)",
        "Answer(x,y) <- a(x,z), b*(z,y)"}) {
    LogicalPlan canonical = Canonical(text);
    auto best = OptimizeHeuristic(*canonical, &vocab_, 32);
    ASSERT_TRUE(best.ok()) << text;
    EXPECT_LE(EstimatePlanCost(**best), EstimatePlanCost(*canonical))
        << text;
    EXPECT_TRUE(ValidatePlan(**best, vocab_).ok()) << text;
  }
}

TEST_F(OptimizerTest, OptimizedPlanIsEquivalent) {
  LogicalPlan canonical = Canonical(
      "D(x,y) <- a(x,z1), b(z1,z2), c(z2,y)\n"
      "Answer(x,y) <- D+(x,y)");
  auto best = OptimizeHeuristic(*canonical, &vocab_, 32);
  ASSERT_TRUE(best.ok());

  RandomStreamOptions opt;
  opt.seed = 41;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab_);
  ASSERT_TRUE(stream.ok());

  Engine reference;
  ASSERT_TRUE(reference.AddPlan(*canonical, vocab_).ok());
  ASSERT_TRUE(reference.Finalize().ok());
  Engine optimized;
  ASSERT_TRUE(optimized.AddPlan(**best, vocab_).ok());
  ASSERT_TRUE(optimized.Finalize().ok());
  reference.PushAll(*stream);
  optimized.PushAll(*stream);
  for (Timestamp t : SampleTimes(*stream, 10)) {
    EXPECT_EQ(ResultPairsAt(reference.results(0), t),
              ResultPairsAt(optimized.results(0), t))
        << " t=" << t;
  }
}

TEST_F(OptimizerTest, SamplingSelectsExecutablePlan) {
  LogicalPlan canonical = Canonical("Answer(x,y) <- a(x,z), b*(z,y)");
  RandomStreamOptions opt;
  opt.seed = 55;
  opt.num_vertices = 10;
  opt.num_labels = 2;
  opt.num_edges = 120;
  opt.max_gap = 1;
  auto sample = GenerateRandomStream(opt, &vocab_);
  ASSERT_TRUE(sample.ok());

  auto best = OptimizeBySampling(*canonical, &vocab_, *sample, 8);
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(ValidatePlan(**best, vocab_).ok());
  Engine engine;
  EXPECT_TRUE(engine.AddPlan(**best, vocab_).ok());
  EXPECT_TRUE(engine.Finalize().ok());
}

TEST(CostModelTest, PathCostGrowsWithAutomaton) {
  Vocabulary vocab;
  LabelId a = *vocab.InternInputLabel("a");
  LabelId b = *vocab.InternInputLabel("b");
  LabelId out = *vocab.InternDerivedLabel("out");
  auto small = [&] {
    std::vector<LogicalPlan> kids;
    kids.push_back(MakeWScan(a, WindowSpec(10, 1)));
    return MakePath(out, Regex::Plus(Regex::Label(a)), std::move(kids));
  }();
  auto big = [&] {
    std::vector<LogicalPlan> kids;
    kids.push_back(MakeWScan(a, WindowSpec(10, 1)));
    kids.push_back(MakeWScan(b, WindowSpec(10, 1)));
    Regex r = Regex::Plus(Regex::Concat(
        {Regex::Label(a), Regex::Label(b), Regex::Label(a),
         Regex::Label(b)}));
    return MakePath(out, std::move(r), std::move(kids));
  }();
  EXPECT_LT(EstimatePlanCost(*small), EstimatePlanCost(*big));
}

}  // namespace
}  // namespace sgq
