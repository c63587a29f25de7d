// Focused tests for the negative-tuple machinery (§6.2.5): explicit
// deletions through PATH operators (tree-edge vs non-tree-edge, retraction
// and re-assertion), the Δ-tree operator's re-derivation accounting, and
// randomized end-to-end deletion equivalence for both PATH implementations.

#include <gtest/gtest.h>

#include "core/delta_path_op.h"
#include "core/engine.h"
#include "core/spath_op.h"
#include "model/coalesce.h"
#include "query/oracle.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

class CollectOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "COLLECT"; }
  std::vector<Sgt> tuples;
};

VertexPairSet PairsAt(const std::vector<Sgt>& results, Timestamp t) {
  VertexPairSet out;
  for (const EdgeRef& e : SnapshotEdges(results, t)) {
    out.insert({e.src, e.trg});
  }
  return out;
}

class PathDeletionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = *vocab_.InternInputLabel("a");
    out_ = *vocab_.InternDerivedLabel("out");
    auto regex = ParseRegex("a+", &vocab_);
    ASSERT_TRUE(regex.ok());
    dfa_ = Dfa::FromRegex(*regex);
  }

  Sgt Edge(VertexId s, VertexId t, Timestamp ts, Timestamp exp) {
    return Sgt(s, t, a_, Interval(ts, exp), {EdgeRef(s, t, a_)});
  }
  Sgt Deletion(VertexId s, VertexId t, Timestamp at) {
    return Sgt(s, t, a_, Interval(at, kMaxTimestamp), {}, /*del=*/true);
  }

  Vocabulary vocab_;
  LabelId a_, out_;
  Dfa dfa_ = Dfa::FromNfa(Nfa::FromRegex(Regex::Epsilon()));
};

TEST_F(PathDeletionTest, NonTreeEdgeDeletionIsFree) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  // Two parallel derivations 1 -> 2; the first one becomes the tree edge,
  // the second (shorter-lived) is a non-tree edge.
  op.OnTuple(0, Edge(1, 2, 0, 100));
  op.OnTuple(0, Edge(1, 3, 1, 100));
  op.OnTuple(0, Edge(3, 2, 2, 50));  // alternative path 1->3->2, exp 50
  const std::size_t before = sink.tuples.size();
  // Deleting the non-tree alternative changes nothing (§6.2.5).
  op.OnTuple(0, Deletion(3, 2, 10));
  VertexPairSet pairs = PairsAt(sink.tuples, 11);
  EXPECT_TRUE(pairs.count({1, 2}) > 0);
  EXPECT_TRUE(pairs.count({1, 3}) > 0);
  EXPECT_FALSE(pairs.count({3, 2}) > 0);
  // Only the (3,2) retraction itself may have been emitted; (1,2) was not
  // disturbed.
  for (std::size_t i = before; i < sink.tuples.size(); ++i) {
    if (sink.tuples[i].is_deletion) {
      EXPECT_EQ(sink.tuples[i].src, 3u);
    }
  }
}

TEST_F(PathDeletionTest, TreeEdgeDeletionReroutesThroughAlternative) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  // Tree path 1->2->4 plus an alternative 1->3->4 with smaller expiry.
  op.OnTuple(0, Edge(1, 2, 0, 100));
  op.OnTuple(0, Edge(2, 4, 1, 100));
  op.OnTuple(0, Edge(1, 3, 2, 60));
  op.OnTuple(0, Edge(3, 4, 3, 60));
  ASSERT_TRUE(PairsAt(sink.tuples, 5).count({1, 4}) > 0);
  // Delete the tree edge 2->4 at t=10: (1,4) must survive via 1->3->4
  // but only until 60.
  op.OnTuple(0, Deletion(2, 4, 10));
  EXPECT_TRUE(PairsAt(sink.tuples, 11).count({1, 4}) > 0);
  EXPECT_TRUE(PairsAt(sink.tuples, 59).count({1, 4}) > 0);
  EXPECT_FALSE(PairsAt(sink.tuples, 60).count({1, 4}) > 0);
  // (2,4) itself is gone.
  EXPECT_FALSE(PairsAt(sink.tuples, 11).count({2, 4}) > 0);
}

TEST_F(PathDeletionTest, CascadingDeletionKillsWholeSubtree) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  // Chain 1 -> 2 -> 3 -> 4 with no alternatives.
  op.OnTuple(0, Edge(1, 2, 0, 100));
  op.OnTuple(0, Edge(2, 3, 1, 100));
  op.OnTuple(0, Edge(3, 4, 2, 100));
  EXPECT_EQ(PairsAt(sink.tuples, 5).size(), 6u);  // all reachable pairs
  // Deleting 1->2 removes exactly the pairs starting at 1.
  op.OnTuple(0, Deletion(1, 2, 10));
  VertexPairSet pairs = PairsAt(sink.tuples, 11);
  EXPECT_EQ(pairs.size(), 3u);
  EXPECT_FALSE(pairs.count({1, 2}) > 0);
  EXPECT_FALSE(pairs.count({1, 3}) > 0);
  EXPECT_FALSE(pairs.count({1, 4}) > 0);
  EXPECT_TRUE(pairs.count({2, 3}) > 0);
}

TEST_F(PathDeletionTest, DeltaPathHandlesExplicitDeletionsToo) {
  DeltaPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  op.OnTuple(0, Edge(1, 2, 0, 100));
  op.OnTuple(0, Edge(2, 3, 1, 100));
  op.OnTuple(0, Deletion(1, 2, 5));
  VertexPairSet pairs = PairsAt(sink.tuples, 6);
  EXPECT_FALSE(pairs.count({1, 2}) > 0);
  EXPECT_FALSE(pairs.count({1, 3}) > 0);
  EXPECT_TRUE(pairs.count({2, 3}) > 0);
}

TEST_F(PathDeletionTest, DeltaPathCountsRederivationRounds) {
  DeltaPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  op.OnTuple(0, Edge(1, 2, 0, 10));
  op.OnTuple(0, Edge(2, 3, 1, 20));
  EXPECT_EQ(op.rederivation_rounds(), 0u);
  op.OnTimeAdvance(10);  // the 1->2 edge expires: DRed round
  EXPECT_GE(op.rederivation_rounds(), 1u);
}

// Randomized: both PATH implementations agree with the oracle under a
// deletion-heavy workload, end to end.
class DeletionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DeletionEquivalence, BothImplsMatchOracle) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 7000;
  opt.num_vertices = 7;
  opt.num_labels = 2;
  opt.num_edges = 70;
  opt.max_gap = 2;
  opt.deletion_probability = 0.25;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,z), b(z,y)", WindowSpec(12, 1), &vocab);
  ASSERT_TRUE(query.ok());
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    EngineOptions options;
    options.path_impl = impl;
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    engine.PushAll(*stream);
    for (Timestamp t : testing_util::SampleTimes(*stream, 10)) {
      EXPECT_EQ(testing_util::ResultPairsAt(engine.results(0), t),
                testing_util::OraclePairsAt(*stream, *query, vocab, t))
          << "impl=" << static_cast<int>(impl) << " seed=" << GetParam()
          << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeletionEquivalence, ::testing::Range(0, 8));

}  // namespace
}  // namespace sgq
