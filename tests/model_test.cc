// Unit tests for the streaming graph data model (paper §3): intervals,
// vocabulary, sgts, coalescing and snapshot graphs. The Figure 2/3/4
// running example is reproduced exactly.

#include <gtest/gtest.h>

#include "model/coalesce.h"
#include "model/interval.h"
#include "model/sgt.h"
#include "model/snapshot_graph.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"
#include "model/window.h"
#include "test_util.h"

namespace sgq {
namespace {

TEST(IntervalTest, ContainsIsHalfOpen) {
  Interval iv(7, 31);
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_TRUE(iv.Contains(30));
  EXPECT_FALSE(iv.Contains(31));
  EXPECT_FALSE(iv.Contains(6));
}

TEST(IntervalTest, EmptyWhenDegenerate) {
  EXPECT_TRUE(Interval(5, 5).Empty());
  EXPECT_TRUE(Interval(6, 5).Empty());
  EXPECT_FALSE(Interval(5, 6).Empty());
}

TEST(IntervalTest, OverlapIsSymmetric) {
  Interval a(1, 5), b(4, 9), c(5, 9);
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));  // half-open: [1,5) and [5,9) share nothing
  EXPECT_TRUE(a.Adjacent(c));
  EXPECT_TRUE(a.OverlapsOrAdjacent(c));
}

TEST(IntervalTest, IntersectUsesMaxMin) {
  // PATTERN semantics (Def. 19): ts = max, exp = min.
  Interval a(10, 34), b(13, 37);
  EXPECT_EQ(a.Intersect(b), Interval(13, 34));
  EXPECT_EQ(a.Span(b), Interval(10, 37));
}

TEST(IntervalTest, CoversAndEquality) {
  EXPECT_TRUE(Interval(1, 10).Covers(Interval(3, 7)));
  EXPECT_TRUE(Interval(1, 10).Covers(Interval(1, 10)));
  EXPECT_FALSE(Interval(3, 7).Covers(Interval(1, 10)));
}

TEST(WindowTest, ExpiryFormulaMatchesDefinition16) {
  // exp = floor(t / beta) * beta + T.
  WindowSpec w(24, 1);
  EXPECT_EQ(w.ExpiryFor(7), 31);
  EXPECT_EQ(w.ExpiryFor(10), 34);
  WindowSpec hourly(24, 6);
  EXPECT_EQ(hourly.ExpiryFor(7), 6 + 24);   // floor(7/6)*6 + 24
  EXPECT_EQ(hourly.ExpiryFor(13), 12 + 24);
}

TEST(VocabularyTest, InternmentIsStableAndPartitioned) {
  Vocabulary vocab;
  auto follows = vocab.InternInputLabel("follows");
  ASSERT_TRUE(follows.ok());
  EXPECT_EQ(*vocab.InternInputLabel("follows"), *follows);
  EXPECT_TRUE(vocab.IsInputLabel(*follows));

  auto notify = vocab.InternDerivedLabel("notify");
  ASSERT_TRUE(notify.ok());
  EXPECT_FALSE(vocab.IsInputLabel(*notify));

  // The EDB/IDB partition is enforced (Def. 13).
  EXPECT_FALSE(vocab.InternDerivedLabel("follows").ok());
  EXPECT_FALSE(vocab.InternInputLabel("notify").ok());
}

TEST(VocabularyTest, VertexInterning) {
  Vocabulary vocab;
  VertexId u = *vocab.InternVertex("u");
  EXPECT_EQ(*vocab.InternVertex("u"), u);
  EXPECT_NE(*vocab.InternVertex("v"), u);
  EXPECT_EQ(vocab.VertexName(u), "u");
  EXPECT_FALSE(vocab.FindVertex("w").ok());
}

TEST(VocabularyTest, RefusesVertexNamesPastItsLimit) {
  // 32-bit ids: 2^32 - 1 names get ids 0 .. 2^32 - 2, and the next one
  // would get kInvalidVertex.
  EXPECT_EQ(Vocabulary::kMaxVertices, std::size_t{kInvalidVertex});
  EXPECT_EQ(kInvalidVertex, 0xFFFFFFFFu);
  testing_util::BoundedVocabulary vocab(2);
  ASSERT_TRUE(vocab.InternVertex("u").ok());
  ASSERT_TRUE(vocab.InternVertex("v").ok());
  const Result<VertexId> w = vocab.InternVertex("w");
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("vertex 'w' refused"),
            std::string::npos)
      << w.status().ToString();
  // A refusal interns nothing; known names still resolve.
  EXPECT_EQ(vocab.NumVertices(), 2u);
  EXPECT_FALSE(vocab.FindVertex("w").ok());
  EXPECT_EQ(*vocab.InternVertex("v"), 1u);
  // A copy keeps the limit.
  Vocabulary copy = vocab;
  EXPECT_FALSE(copy.InternVertex("w").ok());
}

TEST(SgtTest, ValueEquivalenceIgnoresTemporalAttributes) {
  // Def. 10: equality of distinguished attributes only.
  Sgt a(1, 2, 0, Interval(29, 31), {EdgeRef(1, 2, 0)});
  Sgt b(1, 2, 0, Interval(30, 54), {EdgeRef(9, 9, 9)});
  Sgt c(1, 3, 0, Interval(29, 31));
  EXPECT_TRUE(a.ValueEquivalent(b));
  EXPECT_FALSE(a.ValueEquivalent(c));
  EXPECT_FALSE(a == b);
}

// The PATTERN example of the paper (Example 6): two value-equivalent
// (u, RL, v) tuples with intervals [29,31) and [30,31) coalesce into one.
TEST(CoalesceTest, MergesOverlappingValueEquivalentTuples) {
  std::vector<Sgt> tuples = {
      Sgt(1, 2, 5, Interval(29, 31)),
      Sgt(1, 2, 5, Interval(30, 31)),
  };
  std::vector<Sgt> merged = Coalesce(tuples);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].validity, Interval(29, 31));
}

TEST(CoalesceTest, KeepsDisjointIntervalsSeparate) {
  std::vector<Sgt> tuples = {
      Sgt(1, 2, 5, Interval(1, 4)),
      Sgt(1, 2, 5, Interval(6, 9)),
      Sgt(1, 2, 5, Interval(4, 5)),  // adjacent to the first
  };
  std::vector<Sgt> merged = Coalesce(tuples);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].validity, Interval(1, 5));
  EXPECT_EQ(merged[1].validity, Interval(6, 9));
}

TEST(CoalesceTest, AggregationKeepsLastExpiringPayload) {
  // f_agg = max over expiry (the S-PATH choice, §6.2.4).
  std::vector<Sgt> tuples = {
      Sgt(1, 2, 5, Interval(1, 4), {EdgeRef(1, 9, 0), EdgeRef(9, 2, 0)}),
      Sgt(1, 2, 5, Interval(2, 8), {EdgeRef(1, 2, 1)}),
  };
  std::vector<Sgt> merged = Coalesce(tuples);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].validity, Interval(1, 8));
  ASSERT_EQ(merged[0].payload.size(), 1u);
  EXPECT_EQ(merged[0].payload[0], EdgeRef(1, 2, 1));
}

TEST(StreamingCoalescerTest, SuppressesCoveredEmitsNovel) {
  StreamingCoalescer c;
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(1, 10))));
  EXPECT_FALSE(c.Offer(Sgt(1, 2, 0, Interval(3, 7))));   // covered
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(5, 15))));   // extends
  EXPECT_FALSE(c.Offer(Sgt(1, 2, 0, Interval(1, 15))));  // now covered
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(20, 25))));  // disjoint
  // [12,22) adds [15,20): novel, must be emitted; afterwards [2,24) is
  // fully covered by the merged [1,25).
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(12, 22))));
  EXPECT_FALSE(c.Offer(Sgt(1, 2, 0, Interval(2, 24))));
}

TEST(StreamingCoalescerTest, BridgingIntervalIsEmittedOnce) {
  StreamingCoalescer c;
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(1, 5))));
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(8, 12))));
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(4, 9))));   // bridges the gap
  EXPECT_FALSE(c.Offer(Sgt(1, 2, 0, Interval(1, 12))));  // fully covered now
}

TEST(StreamingCoalescerTest, PerKeyTracking) {
  StreamingCoalescer c;
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(1, 10))));
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 1, Interval(1, 10))));  // different label
  EXPECT_TRUE(c.Offer(Sgt(2, 1, 0, Interval(1, 10))));  // reversed pair
  EXPECT_EQ(c.NumKeys(), 3u);
  c.PurgeBefore(50);
  EXPECT_EQ(c.NumKeys(), 0u);
}

TEST(StreamingCoalescerTest, PurgeWithNothingDueDrainsNoHint) {
  StreamingCoalescer c;
  c.ConfigureExpirySlide(3);
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(0, 50))));
  EXPECT_TRUE(c.Offer(Sgt(3, 4, 0, Interval(10, 40))));
  EXPECT_FALSE(c.AnyDue(24));
  c.PurgeBefore(24);
  EXPECT_EQ(c.expiry_hints_drained(), 0u);
  EXPECT_EQ(c.NumKeys(), 2u);
  c.PurgeBefore(40);  // (3,4) expires; (1,2) shares no bucket with it
  EXPECT_EQ(c.NumKeys(), 1u);
  EXPECT_EQ(c.expiry_hints_drained(), 1u);
}

TEST(StreamingCoalescerTest, TruncatedKeyLeavesAtItsNewExpiry) {
  StreamingCoalescer c;
  c.ConfigureExpirySlide(3);
  const EdgeRef key(1, 2, 0);
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(0, 50))));
  c.Forget(key, 20);  // coverage is now [0, 20)
  EXPECT_EQ(c.NumKeys(), 1u);
  EXPECT_TRUE(c.AnyDue(24));
  c.PurgeBefore(24);
  EXPECT_EQ(c.NumKeys(), 0u);
  // Re-asserting past the deletion is novel again.
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(25, 50))));
}

TEST(StreamingCoalescerTest, RecreatedKeyIsPurgedOnTime) {
  StreamingCoalescer c;
  c.ConfigureExpirySlide(3);
  const EdgeRef key(1, 2, 0);
  // Created, fully forgotten (its hint at 50 goes stale), re-created with
  // an earlier expiry: the new key leaves at 30, not 50.
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(0, 50))));
  c.Forget(key);
  EXPECT_EQ(c.NumKeys(), 0u);
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(10, 30))));
  c.PurgeBefore(27);
  EXPECT_EQ(c.NumKeys(), 1u);
  c.PurgeBefore(30);
  EXPECT_EQ(c.NumKeys(), 0u);
  // Re-created with a later expiry: the stale hint at 20 leaves it alone.
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(12, 20))));
  c.Forget(key);
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(14, 45))));
  c.PurgeBefore(21);
  EXPECT_EQ(c.NumKeys(), 1u);
  EXPECT_FALSE(c.Offer(Sgt(1, 2, 0, Interval(20, 40))));  // still covered
  c.PurgeBefore(45);
  EXPECT_EQ(c.NumKeys(), 0u);
}

TEST(StreamingCoalescerTest, SecondIntervalIsCountedInItsHeapBlock) {
  // One interval lives in the key's slot; a second, disjoint one moves the
  // key's coverage to a heap block, which ApproxBytes counts.
  StreamingCoalescer one, two;
  EXPECT_TRUE(one.Offer(Sgt(1, 2, 0, Interval(1, 5))));
  EXPECT_TRUE(two.Offer(Sgt(1, 2, 0, Interval(1, 5))));
  EXPECT_EQ(two.ApproxBytes(), one.ApproxBytes());
  EXPECT_TRUE(two.Offer(Sgt(1, 2, 0, Interval(8, 12))));
  EXPECT_EQ(two.ApproxBytes(), one.ApproxBytes() + 2 * sizeof(Interval));
}

TEST(StreamingCoalescerTest, KeyPurgedBackToOneIntervalFreesItsHeapBlock) {
  // Both keys start with [1, 5), reach 12 and lose their hint at 5. `one`
  // extended [1, 5) to [1, 12) in its slot; `two` added [8, 12) apart, in
  // a heap block, and drops [1, 5) at the purge. Back to one interval,
  // `two` holds it inline again and costs what `one` costs.
  StreamingCoalescer one, two;
  EXPECT_TRUE(one.Offer(Sgt(1, 2, 0, Interval(1, 5))));
  EXPECT_TRUE(one.Offer(Sgt(1, 2, 0, Interval(5, 12))));
  EXPECT_TRUE(two.Offer(Sgt(1, 2, 0, Interval(1, 5))));
  EXPECT_TRUE(two.Offer(Sgt(1, 2, 0, Interval(8, 12))));
  EXPECT_EQ(two.ApproxBytes(), one.ApproxBytes() + 2 * sizeof(Interval));
  one.PurgeBefore(5);
  two.PurgeBefore(5);
  EXPECT_EQ(one.NumKeys(), 1u);
  EXPECT_EQ(two.NumKeys(), 1u);
  EXPECT_EQ(two.ApproxBytes(), one.ApproxBytes());
  // The surviving interval still suppresses; [1, 5) is novel again.
  EXPECT_FALSE(two.Offer(Sgt(1, 2, 0, Interval(9, 11))));
  EXPECT_TRUE(two.Offer(Sgt(1, 2, 0, Interval(2, 4))));
}

TEST(StreamingCoalescerTest, EarlierIntervalMovesTheHint) {
  StreamingCoalescer c;
  c.ConfigureExpirySlide(3);
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(30, 60))));
  // Out of order: an earlier, disjoint interval becomes the first one.
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(5, 15))));
  c.PurgeBefore(15);
  EXPECT_EQ(c.NumKeys(), 1u);
  // [5, 15) is gone, [30, 60) survives: [5, 15) is novel again.
  EXPECT_TRUE(c.Offer(Sgt(1, 2, 0, Interval(5, 15))));
  c.PurgeBefore(60);
  EXPECT_EQ(c.NumKeys(), 0u);
}

// ---------------------------------------------------------------------------
// Figure 2/3/4: the running example of the paper.
// ---------------------------------------------------------------------------

class FigureExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Figure 2: the input graph stream of the social network example.
    const char* csv =
        "u,follows,v,7\n"
        "v,posts,b,10\n"
        "y,follows,u,13\n"
        "v,posts,c,17\n"
        "u,posts,a,22\n"
        "y,likes,a,28\n"
        "u,likes,b,29\n"
        "u,likes,c,30\n";
    auto parsed = ParseStreamCsv(csv, &vocab_);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    stream_ = *parsed;
  }

  Vocabulary vocab_;
  InputStream stream_;
};

TEST_F(FigureExampleTest, Figure3WindowAssignsValidityIntervals) {
  // W24 produces the streaming graph of Figure 3: [7,31), [10,34), ...
  WindowSpec w24(24, 1);
  std::vector<Interval> expected = {{7, 31},  {10, 34}, {13, 37}, {17, 41},
                                    {22, 46}, {28, 52}, {29, 53}, {30, 54}};
  ASSERT_EQ(stream_.size(), expected.size());
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    EXPECT_EQ(Interval(stream_[i].t, w24.ExpiryFor(stream_[i].t)),
              expected[i]);
  }
}

TEST_F(FigureExampleTest, Figure4SnapshotAt25) {
  // The snapshot graph at t = 25 contains the first five edges only
  // (the likes edges arrive later).
  WindowSpec w24(24, 1);
  SgtStream windowed;
  for (const Sge& sge : stream_) {
    windowed.emplace_back(sge.src, sge.trg, sge.label,
                          Interval(sge.t, w24.ExpiryFor(sge.t)),
                          Payload{sge.edge()});
  }
  SnapshotGraph g = SnapshotGraph::At(windowed, 25);
  EXPECT_EQ(g.NumEdges(), 5u);
  const VertexId u = *vocab_.FindVertex("u");
  const VertexId v = *vocab_.FindVertex("v");
  const LabelId follows = *vocab_.FindLabel("follows");
  EXPECT_TRUE(g.HasEdge(EdgeRef(u, v, follows)));
  // At t = 50 only the three likes edges ([28,52), [29,53), [30,54))
  // remain valid.
  SnapshotGraph g50 = SnapshotGraph::At(windowed, 50);
  EXPECT_EQ(g50.NumEdges(), 3u);
}

TEST_F(FigureExampleTest, StreamIoRoundTrips) {
  const std::string csv = FormatStreamCsv(stream_, vocab_);
  Vocabulary vocab2;
  auto reparsed = ParseStreamCsv(csv, &vocab2);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), stream_.size());
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    EXPECT_EQ((*reparsed)[i].t, stream_[i].t);
  }
}

TEST(StreamIoTest, RejectsDecreasingTimestamps) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("a,l,b,5\nb,l,c,3\n", &vocab);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(StreamIoTest, ParsesExplicitDeletions) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("a,l,b,5\na,l,b,9,-\n", &vocab);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)[0].is_deletion);
  EXPECT_TRUE((*r)[1].is_deletion);
}

TEST(SnapshotEdgesTest, DeletionTruncatesValidity) {
  SgtStream stream = {
      Sgt(1, 2, 0, Interval(5, 50)),
      Sgt(1, 2, 0, Interval(20, kMaxTimestamp), {}, /*del=*/true),
  };
  EXPECT_EQ(SnapshotEdges(stream, 10).size(), 1u);
  EXPECT_EQ(SnapshotEdges(stream, 20).size(), 0u);
  EXPECT_EQ(SnapshotEdges(stream, 30).size(), 0u);
}

}  // namespace
}  // namespace sgq
