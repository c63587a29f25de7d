// Focused unit tests for the DD-style baseline's internals: the delta
// rule over old/new relation versions, counting supports, closure
// maintenance under insertions and deletions, and epoch metrics.

#include <gtest/gtest.h>

#include "baseline/engine.h"
#include "workload/queries.h"

namespace sgq {
namespace {

class DdEngineTest : public ::testing::Test {
 protected:
  void MakeEngine(const char* text, Timestamp window, Timestamp slide) {
    auto query = MakeQuery(text, WindowSpec(window, slide), &vocab_);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto engine = baseline::DifferentialEngine::Create(*query, vocab_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }

  void Push(const char* s, const char* l, const char* g, Timestamp t,
            bool del = false) {
    engine_->Push(Sge(*vocab_.InternVertex(s), *vocab_.InternVertex(g),
                      *vocab_.FindLabel(l), t, del));
  }

  VertexPairSet Pairs(std::initializer_list<std::pair<const char*,
                                                      const char*>> pairs) {
    VertexPairSet out;
    for (const auto& [s, g] : pairs) {
      out.insert({*vocab_.FindVertex(s), *vocab_.FindVertex(g)});
    }
    return out;
  }

  Vocabulary vocab_;
  std::unique_ptr<baseline::DifferentialEngine> engine_;
};

TEST_F(DdEngineTest, JoinAppearsAtEpochBoundary) {
  MakeEngine("Answer(x,y) <- a(x,z), b(z,y)", 20, 5);
  Push("p", "a", "q", 0);
  Push("q", "b", "r", 1);
  // Nothing visible until the epoch closes.
  EXPECT_TRUE(engine_->Answers().empty());
  engine_->AdvanceTo(5);
  EXPECT_EQ(engine_->Answers(), Pairs({{"p", "r"}}));
}

TEST_F(DdEngineTest, CountingSurvivesPartialSupportLoss) {
  // Two derivations of the same head tuple; deleting one keeps the head.
  MakeEngine("Answer(x,y) <- a(x,z), b(z,y)", 100, 5);
  Push("p", "a", "q1", 0);
  Push("p", "a", "q2", 0);
  Push("q1", "b", "r", 1);
  Push("q2", "b", "r", 1);
  engine_->AdvanceTo(5);
  EXPECT_EQ(engine_->Answers().size(), 1u);
  Push("p", "a", "q1", 6, /*del=*/true);
  engine_->AdvanceTo(10);
  EXPECT_EQ(engine_->Answers(), Pairs({{"p", "r"}}));  // still supported
  Push("p", "a", "q2", 11, /*del=*/true);
  engine_->AdvanceTo(15);
  EXPECT_TRUE(engine_->Answers().empty());  // last support gone
}

TEST_F(DdEngineTest, ClosureGrowsAndShrinksWithWindow) {
  MakeEngine("Answer(x,y) <- e+(x,y)", 10, 5);
  Push("a", "e", "b", 0);
  Push("b", "e", "c", 1);
  engine_->AdvanceTo(5);
  EXPECT_EQ(engine_->Answers(),
            Pairs({{"a", "b"}, {"b", "c"}, {"a", "c"}}));
  // Window size 10, slide 5: the first epoch's edges expire at
  // floor(t/5)*5+10 = 10.
  engine_->AdvanceTo(10);
  EXPECT_TRUE(engine_->Answers().empty());
}

TEST_F(DdEngineTest, CycleClosureHandledByDRed) {
  MakeEngine("Answer(x,y) <- e+(x,y)", 100, 5);
  Push("a", "e", "b", 0);
  Push("b", "e", "a", 1);
  engine_->AdvanceTo(5);
  // 2-cycle: all four pairs including self-reachability.
  EXPECT_EQ(engine_->Answers().size(), 4u);
  Push("b", "e", "a", 6, /*del=*/true);
  engine_->AdvanceTo(10);
  EXPECT_EQ(engine_->Answers(), Pairs({{"a", "b"}}));
}

TEST_F(DdEngineTest, EdgeCountsAndEpochLatencies) {
  MakeEngine("Answer(x,y) <- a(x,y)", 10, 2);
  Push("p", "a", "q", 0);
  engine_->Push(Sge(1u, 2u, 999999u % 3u, 1));  // label id 0,1,2 may exist
  engine_->AdvanceTo(8);
  EXPECT_GE(engine_->edges_pushed(), 2u);
  EXPECT_GE(engine_->epoch_latencies().count(), 3u);
  EXPECT_EQ(engine_->answers_emitted(), 1u);
}

TEST_F(DdEngineTest, CoalescesReinsertedEdgeToLaterExpiry) {
  MakeEngine("Answer(x,y) <- a(x,y)", 10, 2);
  Push("p", "a", "q", 0);   // expires at 10
  Push("p", "a", "q", 6);   // re-insertion extends to 16
  engine_->AdvanceTo(12);
  EXPECT_EQ(engine_->Answers().size(), 1u);  // still alive via extension
  engine_->AdvanceTo(18);
  EXPECT_TRUE(engine_->Answers().empty());
}

TEST_F(DdEngineTest, RejectsInvalidQuery) {
  Vocabulary vocab;
  StreamingGraphQuery query;  // empty RQ
  EXPECT_FALSE(baseline::DifferentialEngine::Create(query, vocab).ok());
}

}  // namespace
}  // namespace sgq
