// Equivalence tests for the plan gallery (workload/plan_gallery.h): the
// SGA/P1/P2/P3 plans of §7.4 must produce identical result snapshots —
// they are, after all, generated by semantics-preserving rewrite rules.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/plan_gallery.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

struct GalleryCase {
  const char* name;
  std::vector<NamedPlan> (*make)(Vocabulary*, const char*, const char*,
                                 const char*, WindowSpec);
};

void CheckAllPlansAgree(const std::vector<NamedPlan>& plans,
                        const InputStream& stream,
                        const Vocabulary& vocab) {
  ASSERT_GE(plans.size(), 2u);
  std::vector<std::vector<VertexPairSet>> snapshots;
  const std::vector<Timestamp> times = SampleTimes(stream, 10);
  for (const auto& [name, plan] : plans) {
    Engine engine;
    ASSERT_TRUE(engine.AddPlan(*plan, vocab).ok()) << name;
    ASSERT_TRUE(engine.Finalize().ok());
    engine.PushAll(stream);
    std::vector<VertexPairSet> per_time;
    for (Timestamp t : times) {
      per_time.push_back(ResultPairsAt(engine.results(0), t));
    }
    snapshots.push_back(std::move(per_time));
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    for (std::size_t j = 0; j < times.size(); ++j) {
      EXPECT_EQ(snapshots[0][j], snapshots[i][j])
          << plans[i].first << " diverges from " << plans[0].first
          << " at t=" << times[j];
    }
  }
}

class GallerySeedTest : public ::testing::TestWithParam<int> {};

TEST_P(GallerySeedTest, Q4PlansAreEquivalent) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 100;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  CheckAllPlansAgree(Q4Plans(&vocab, "a", "b", "c", WindowSpec(15, 1)),
                     *stream, vocab);
}

TEST_P(GallerySeedTest, Q2PlansAreEquivalent) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 200;
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  CheckAllPlansAgree(Q2Plans(&vocab, "a", "b", WindowSpec(15, 1)), *stream,
                     vocab);
}

TEST_P(GallerySeedTest, Q3PlansAreEquivalent) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 300;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  CheckAllPlansAgree(Q3Plans(&vocab, "a", "b", "c", WindowSpec(15, 1)),
                     *stream, vocab);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GallerySeedTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace sgq
