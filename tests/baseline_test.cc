// Tests for the DD-style baseline engine (§7.2.2): epoch-batched counting
// IVM + semi-naive/DRed transitive closure, validated against the one-time
// oracle at epoch boundaries and against the SGA engine.

#include <gtest/gtest.h>

#include "baseline/engine.h"
#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::OraclePairsAt;
using testing_util::ResultPairsAt;

/// Oracle for epoch semantics: at boundary B the DD engine has applied
/// exactly the arrivals with t < B (the batch of the closed epoch), so the
/// reference is the snapshot at B of the stream truncated to t < B.
VertexPairSet EpochOracle(const InputStream& stream,
                          const StreamingGraphQuery& query,
                          const Vocabulary& vocab, Timestamp boundary) {
  InputStream truncated;
  for (const Sge& sge : stream) {
    if (sge.t < boundary) truncated.push_back(sge);
  }
  return OraclePairsAt(truncated, query, vocab, boundary);
}

TEST(RelationVersionTest, InsertEraseContains) {
  baseline::RelationVersion rel;
  rel.Insert(1, 2);
  rel.Insert(1, 3);
  EXPECT_TRUE(rel.Contains(1, 2));
  EXPECT_EQ(rel.TargetsOf(1).size(), 2u);
  EXPECT_EQ(rel.SourcesOf(2).size(), 1u);
  rel.Erase(1, 2);
  EXPECT_FALSE(rel.Contains(1, 2));
  EXPECT_EQ(rel.Size(), 1u);
  rel.Insert(1, 3);  // idempotent
  EXPECT_EQ(rel.Size(), 1u);
}

TEST(VersionedRelationTest, DeltaAndCommit) {
  baseline::VersionedRelation rel;
  rel.Apply(1, 2, +1);
  rel.Apply(1, 2, +1);  // no-op (set semantics)
  EXPECT_EQ(rel.delta().size(), 1u);
  EXPECT_TRUE(rel.new_version().Contains(1, 2));
  EXPECT_FALSE(rel.old_version().Contains(1, 2));
  rel.Commit();
  EXPECT_TRUE(rel.old_version().Contains(1, 2));
  EXPECT_FALSE(rel.HasDelta());
  rel.Apply(1, 2, -1);
  EXPECT_FALSE(rel.new_version().Contains(1, 2));
  EXPECT_TRUE(rel.old_version().Contains(1, 2));
}

struct BaselineCase {
  const char* name;
  const char* text;
  int seed;
  Timestamp slide;
};

class BaselineOracleTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineOracleTest, AnswersMatchOracleAtEpochBoundaries) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed);
  opt.num_vertices = 9;
  opt.num_labels = 3;
  opt.num_edges = 90;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query = MakeQuery(GetParam().text,
                         WindowSpec(16, GetParam().slide), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  auto engine = baseline::DifferentialEngine::Create(*query, vocab);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Feed incrementally; at each epoch boundary compare with the oracle
  // evaluated on the snapshot at that boundary.
  Timestamp boundary = ((*stream)[0].t / GetParam().slide) *
                           GetParam().slide +
                       GetParam().slide;
  for (const Sge& sge : *stream) {
    while (sge.t >= boundary) {
      (*engine)->AdvanceTo(boundary);
      EXPECT_EQ((*engine)->Answers(),
                EpochOracle(*stream, *query, vocab, boundary))
          << GetParam().name << " boundary=" << boundary;
      boundary += GetParam().slide;
    }
    (*engine)->Push(sge);
  }
  (*engine)->AdvanceTo(boundary);
  EXPECT_EQ((*engine)->Answers(),
            EpochOracle(*stream, *query, vocab, boundary));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BaselineOracleTest,
    ::testing::Values(
        BaselineCase{"TC", "Answer(x,y) <- a+(x,y)", 3, 1},
        BaselineCase{"TCslide4", "Answer(x,y) <- a+(x,y)", 4, 4},
        BaselineCase{"Join", "Answer(x,y) <- a(x,z), b(z,y)", 5, 2},
        BaselineCase{"Star", "Answer(x,y) <- a(x,z), b*(z,y)", 6, 2},
        BaselineCase{"Triangle",
                     "Answer(x,y) <- a(x,y), b(y,z), c(z,x)", 7, 3},
        BaselineCase{"TCJoin", "Answer(x,y) <- a+(x,z), b(z,y)", 8, 2},
        BaselineCase{"UnionHeads",
                     "R(x,y) <- a(x,y)\nR(x,y) <- b(x,y)\n"
                     "Answer(x,y) <- R+(x,y)",
                     9, 2},
        BaselineCase{"Q7shape",
                     "RL(x,y) <- a+(x,y), b(x,m), c(m,y)\n"
                     "Answer(x,m) <- RL+(x,y), c(m,y)",
                     10, 4}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return info.param.name;
    });

TEST(BaselineVsSgaTest, BothEnginesAgreeAtBoundaries) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 21;
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  const Timestamp slide = 4;
  auto query =
      MakeQuery("Answer(x,y) <- a+(x,z), b(z,y)", WindowSpec(16, slide),
                &vocab);
  ASSERT_TRUE(query.ok());

  // Compare at a boundary: feed both engines exactly the edges of closed
  // epochs (t < boundary) so their views coincide.
  const Timestamp end = (*stream).back().t;
  const Timestamp boundary = (end / slide) * slide;
  InputStream closed;
  for (const Sge& sge : *stream) {
    if (sge.t < boundary) closed.push_back(sge);
  }

  Engine sga;
  ASSERT_TRUE(sga.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(sga.Finalize().ok());
  sga.PushAll(closed);

  auto dd = baseline::DifferentialEngine::Create(*query, vocab);
  ASSERT_TRUE(dd.ok());
  for (const Sge& sge : closed) (*dd)->Push(sge);
  (*dd)->AdvanceTo(boundary);
  EXPECT_EQ(ResultPairsAt(sga.results(0), boundary), (*dd)->Answers());
}

TEST(BaselineDeletionTest, ExplicitDeletionsHandled) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 31;
  opt.num_vertices = 7;
  opt.num_labels = 2;
  opt.num_edges = 60;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  auto engine = baseline::DifferentialEngine::Create(*query, vocab);
  ASSERT_TRUE(engine.ok());
  for (const Sge& sge : *stream) (*engine)->Push(sge);
  const Timestamp boundary = ((*stream).back().t / 3) * 3 + 3;
  (*engine)->AdvanceTo(boundary);
  EXPECT_EQ((*engine)->Answers(),
            EpochOracle(*stream, *query, vocab, boundary));
}

}  // namespace
}  // namespace sgq
