// Additional transformation-rule coverage: executable round-trips for
// every rewrite, WSCAN commutation semantics, and stress on the plan
// enumerator's deduplication.

#include <gtest/gtest.h>

#include "algebra/transform.h"
#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

class TransformExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = *vocab_.InternInputLabel("a");
    b_ = *vocab_.InternInputLabel("b");
    c_ = *vocab_.InternInputLabel("c");
    out_ = *vocab_.InternDerivedLabel("out");
    RandomStreamOptions opt;
    opt.seed = 77;
    opt.num_vertices = 8;
    opt.num_labels = 3;
    opt.num_edges = 80;
    opt.max_gap = 2;
    auto stream = GenerateRandomStream(opt, &vocab_);
    ASSERT_TRUE(stream.ok());
    stream_ = *stream;
  }

  LogicalPlan Scan(LabelId l) { return MakeWScan(l, WindowSpec(15, 1)); }

  /// Runs both plans on the shared stream and asserts equal snapshots.
  void ExpectEquivalent(const LogicalOp& p1, const LogicalOp& p2) {
    Engine q1;
    ASSERT_TRUE(q1.AddPlan(p1, vocab_).ok()) << p1.ToString(vocab_);
    ASSERT_TRUE(q1.Finalize().ok());
    Engine q2;
    ASSERT_TRUE(q2.AddPlan(p2, vocab_).ok()) << p2.ToString(vocab_);
    ASSERT_TRUE(q2.Finalize().ok());
    q1.PushAll(stream_);
    q2.PushAll(stream_);
    for (Timestamp t : SampleTimes(stream_, 8)) {
      ASSERT_EQ(ResultPairsAt(q1.results(0), t),
                ResultPairsAt(q2.results(0), t))
          << "plans diverge at t=" << t << "\n"
          << p1.ToString(vocab_) << "vs\n"
          << p2.ToString(vocab_);
    }
  }

  Vocabulary vocab_;
  LabelId a_, b_, c_, out_;
  InputStream stream_;
};

TEST_F(TransformExecTest, AlternationSplitExecutesEquivalently) {
  std::vector<LogicalPlan> kids;
  kids.push_back(Scan(a_));
  kids.push_back(Scan(b_));
  auto path = MakePath(
      out_,
      Regex::Plus(Regex::Alt({Regex::Label(a_), Regex::Label(b_)})),
      std::move(kids));
  // Split applies to a top-level Alt only: build (a|b) without closure.
  std::vector<LogicalPlan> kids2;
  kids2.push_back(Scan(a_));
  kids2.push_back(Scan(b_));
  auto alt = MakePath(out_, Regex::Alt({Regex::Label(a_), Regex::Label(b_)}),
                      std::move(kids2));
  LogicalPlan split = TrySplitPathAlternation(*alt);
  ASSERT_NE(split, nullptr);
  ExpectEquivalent(*alt, *split);
  (void)path;
}

TEST_F(TransformExecTest, ConcatSplitExecutesEquivalently) {
  std::vector<LogicalPlan> kids;
  kids.push_back(Scan(a_));
  kids.push_back(Scan(b_));
  kids.push_back(Scan(c_));
  auto path = MakePath(out_,
                       Regex::Concat({Regex::Label(a_), Regex::Label(b_),
                                      Regex::Label(c_)}),
                       std::move(kids));
  LogicalPlan split = TrySplitPathConcat(*path, &vocab_);
  ASSERT_NE(split, nullptr);
  ExpectEquivalent(*path, *split);
}

TEST_F(TransformExecTest, FusePatternChainExecutesEquivalently) {
  std::vector<LogicalPlan> kids;
  kids.push_back(Scan(a_));
  kids.push_back(Scan(b_));
  auto pattern = MakePattern(out_, {{"x", "y"}, {"y", "z"}}, "x", "z",
                             std::move(kids));
  LogicalPlan fused = TryFusePatternChain(*pattern);
  ASSERT_NE(fused, nullptr);
  ExpectEquivalent(*pattern, *fused);
}

TEST_F(TransformExecTest, EnumerationTerminatesAndDeduplicates) {
  // A plan with several applicable rules must not enumerate duplicates or
  // blow past the budget.
  std::vector<LogicalPlan> kids;
  kids.push_back(Scan(a_));
  kids.push_back(Scan(b_));
  kids.push_back(Scan(c_));
  auto pattern = MakePattern(
      *vocab_.InternDerivedLabel("base"),
      {{"x0", "x1"}, {"x1", "x2"}, {"x2", "x3"}}, "x0", "x3",
      std::move(kids));
  std::vector<LogicalPlan> closure_kids;
  closure_kids.push_back(std::move(pattern));
  auto root = MakePath(out_,
                       Regex::Plus(Regex::Label(*vocab_.FindLabel("base"))),
                       std::move(closure_kids));
  std::vector<LogicalPlan> plans = EnumeratePlans(*root, &vocab_, 24);
  EXPECT_LE(plans.size(), 24u);
  EXPECT_GE(plans.size(), 2u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    for (std::size_t j = i + 1; j < plans.size(); ++j) {
      EXPECT_FALSE(plans[i]->Equals(*plans[j]))
          << "duplicate plans at " << i << "," << j;
    }
  }
}

TEST_F(TransformExecTest, FilterCommutesWithUnionExecutably) {
  std::vector<LogicalPlan> kids;
  kids.push_back(Scan(a_));
  kids.push_back(Scan(b_));
  auto u = MakeUnion(out_, std::move(kids));
  FilterPredicate self;
  self.kind = FilterPredicate::Kind::kSrcEqualsTrg;
  auto filtered = MakeFilter({self}, std::move(u));
  LogicalPlan pushed = TryPushFilterBelowUnion(*filtered);
  ASSERT_NE(pushed, nullptr);
  ExpectEquivalent(*filtered, *pushed);
}

}  // namespace
}  // namespace sgq
