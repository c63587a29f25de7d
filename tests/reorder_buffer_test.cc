// Tests for the out-of-order ingestion extension (core/reorder_buffer.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/engine.h"
#include "core/reorder_buffer.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

Sge E(Timestamp t) { return Sge(1, 2, 0, t); }

TEST(ReorderBufferTest, InOrderStreamPassesThrough) {
  ReorderBuffer buf(/*slack=*/2);
  std::vector<Sge> out;
  for (Timestamp t : {0, 1, 2, 3, 4, 5}) {
    for (const Sge& e : buf.Offer(E(t))) out.push_back(e);
  }
  for (const Sge& e : buf.Flush()) out.push_back(e);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].t, out[i].t);
  }
}

TEST(ReorderBufferTest, ReordersWithinSlack) {
  ReorderBuffer buf(/*slack=*/3);
  std::vector<Sge> out;
  for (Timestamp t : {2, 0, 1, 5, 3, 4, 8, 6, 7}) {
    for (const Sge& e : buf.Offer(E(t))) out.push_back(e);
  }
  for (const Sge& e : buf.Flush()) out.push_back(e);
  ASSERT_EQ(out.size(), 9u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(i));
  }
  EXPECT_EQ(buf.LateCount(), 0u);
}

TEST(ReorderBufferTest, DropsAndReportsLateElements) {
  ReorderBuffer buf(/*slack=*/1);
  std::vector<Sge> late;
  buf.OnLate([&](const Sge& e) { late.push_back(e); });
  (void)buf.Offer(E(10));
  (void)buf.Offer(E(3));  // 7 units late with slack 1: dropped
  EXPECT_EQ(buf.LateCount(), 1u);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].t, 3);
}

TEST(ReorderBufferTest, WatermarkAdvancesMonotonically) {
  ReorderBuffer buf(/*slack=*/5);
  EXPECT_EQ(buf.Watermark(), kMinTimestamp);
  (void)buf.Offer(E(10));
  EXPECT_EQ(buf.Watermark(), 5);
  (void)buf.Offer(E(7));  // within slack, watermark unchanged
  EXPECT_EQ(buf.Watermark(), 5);
  (void)buf.Offer(E(20));
  EXPECT_EQ(buf.Watermark(), 15);
}

class ShuffledStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(ShuffledStreamTest, EngineBehindBufferMatchesOrderedRun) {
  // Shuffle a stream within bounded windows; feeding it through the
  // reorder buffer must reproduce the ordered run's snapshots exactly.
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam()) + 90;
  opt.num_vertices = 8;
  opt.num_labels = 2;
  opt.num_edges = 90;
  opt.max_gap = 1;
  auto ordered = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(ordered.ok());

  // Local shuffles bounded by `disorder` positions (timestamps drift by at
  // most max_gap * disorder).
  const Timestamp disorder = 4;
  InputStream shuffled = *ordered;
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  for (std::size_t i = 0; i + 1 < shuffled.size(); i += 2) {
    if (rng() % 2 == 0) std::swap(shuffled[i], shuffled[i + 1]);
  }

  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 1), &vocab);
  ASSERT_TRUE(query.ok());

  Engine reference;
  ASSERT_TRUE(reference.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(reference.Finalize().ok());
  reference.PushAll(*ordered);

  Engine buffered;
  ASSERT_TRUE(buffered.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(buffered.Finalize().ok());
  ReorderBuffer buf(disorder * (opt.max_gap + 1));
  for (const Sge& sge : shuffled) {
    for (const Sge& released : buf.Offer(sge)) buffered.Push(released);
  }
  for (const Sge& released : buf.Flush()) buffered.Push(released);
  EXPECT_EQ(buf.LateCount(), 0u);

  for (Timestamp t : testing_util::SampleTimes(*ordered, 10)) {
    EXPECT_EQ(testing_util::ResultPairsAt(reference.results(0), t),
              testing_util::ResultPairsAt(buffered.results(0), t))
        << "seed=" << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledStreamTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace sgq
