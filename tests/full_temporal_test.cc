// The strongest correctness check in the suite: full temporal equivalence.
// For small randomized streams, the engine's result snapshots are compared
// with the one-time oracle at EVERY time instant of the stream's span
// (Def. 15 verified exhaustively, not at sampled instants).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

struct FullCase {
  const char* name;
  const char* text;
  int seed;
  double deletion_probability;
};

class FullTemporalTest : public ::testing::TestWithParam<FullCase> {};

TEST_P(FullTemporalTest, EveryInstantMatchesOracle) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed) + 40000;
  opt.num_vertices = 6;
  opt.num_labels = 3;
  opt.num_edges = 45;
  opt.max_gap = 2;
  opt.deletion_probability = GetParam().deletion_probability;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto query = MakeQuery(GetParam().text, WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*stream);

  const Timestamp horizon = stream->back().t;
  for (Timestamp t = 0; t <= horizon; ++t) {
    ASSERT_EQ(testing_util::ResultPairsAt(engine.results(0), t),
              testing_util::OraclePairsAt(*stream, *query, vocab, t))
        << GetParam().name << " seed=" << GetParam().seed << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, FullTemporalTest,
    ::testing::Values(
        FullCase{"TC", "Answer(x,y) <- a+(x,y)", 1, 0.0},
        FullCase{"TCdel", "Answer(x,y) <- a+(x,y)", 2, 0.2},
        FullCase{"Join", "Answer(x,y) <- a(x,z), b(z,y)", 3, 0.0},
        FullCase{"JoinDel", "Answer(x,y) <- a(x,z), b(z,y)", 4, 0.2},
        FullCase{"StarTail", "Answer(x,y) <- a(x,z), b*(z,y)", 5, 0.0},
        FullCase{"Triangle", "Answer(x,y) <- a(x,y), b(y,z), c(z,x)", 6,
                 0.0},
        FullCase{"ClosureJoin", "Answer(x,y) <- a+(x,z), b(z,y)", 7, 0.0},
        FullCase{"NestedClosure",
                 "D(x,y) <- a(x,z), b(z,y)\nAnswer(x,y) <- D+(x,y)", 8,
                 0.0},
        FullCase{"UnionClosure",
                 "R(x,y) <- a(x,y)\nR(x,y) <- b(x,y)\n"
                 "Answer(x,y) <- R+(x,y)",
                 9, 0.0},
        FullCase{"Q7shape",
                 "RL(x,y) <- a+(x,y), b(x,m), c(m,y)\n"
                 "Answer(x,m) <- RL+(x,y), c(m,y)",
                 10, 0.0}),
    [](const ::testing::TestParamInfo<FullCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sgq
