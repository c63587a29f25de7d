// Unit tests for the windowed edge store used by the PATH operators.

#include <gtest/gtest.h>

#include "core/window_store.h"

namespace sgq {
namespace {

TEST(WindowEdgeStoreTest, InsertAndLookup) {
  WindowEdgeStore store;
  store.Insert(1, 2, 0, Interval(0, 10));
  store.Insert(1, 3, 0, Interval(2, 12));
  store.Insert(1, 2, 1, Interval(0, 10));  // different label
  ASSERT_EQ(store.OutEdges(1, 0).size(), 2u);
  ASSERT_EQ(store.OutEdges(1, 1).size(), 1u);
  EXPECT_TRUE(store.OutEdges(2, 0).empty());
  EXPECT_EQ(store.NumEntries(), 3u);
}

TEST(WindowEdgeStoreTest, CoalescesTouchingIntervals) {
  WindowEdgeStore store;
  store.Insert(1, 2, 0, Interval(0, 10));
  store.Insert(1, 2, 0, Interval(5, 20));   // overlapping: span
  store.Insert(1, 2, 0, Interval(20, 25));  // adjacent: span
  ASSERT_EQ(store.OutEdges(1, 0).size(), 1u);
  EXPECT_EQ(store.OutEdges(1, 0)[0].validity, Interval(0, 25));
  // A disjoint re-insertion stays separate.
  store.Insert(1, 2, 0, Interval(40, 50));
  EXPECT_EQ(store.OutEdges(1, 0).size(), 2u);
}

TEST(WindowEdgeStoreTest, EmptyIntervalIgnored) {
  WindowEdgeStore store;
  store.Insert(1, 2, 0, Interval(5, 5));
  EXPECT_EQ(store.NumEntries(), 0u);
}

TEST(WindowEdgeStoreTest, DeleteAtTruncates) {
  WindowEdgeStore store;
  store.Insert(1, 2, 0, Interval(0, 100));
  EXPECT_TRUE(store.DeleteAt(1, 2, 0, 40));
  ASSERT_EQ(store.OutEdges(1, 0).size(), 1u);
  EXPECT_EQ(store.OutEdges(1, 0)[0].validity, Interval(0, 40));
  // Deleting before the start removes the entry entirely.
  EXPECT_TRUE(store.DeleteAt(1, 2, 0, 0));
  EXPECT_TRUE(store.OutEdges(1, 0).empty());
  // Deleting something absent reports no effect.
  EXPECT_FALSE(store.DeleteAt(9, 9, 0, 5));
}

TEST(WindowEdgeStoreTest, CalendarPurgeIsExactAcrossBucketBoundaries) {
  // Purge-at-t must return exactly the edges with exp <= t, for every t,
  // regardless of how expiries straddle the slide-aligned buckets.
  WindowEdgeStore store;
  store.ConfigureExpirySlide(10);  // buckets [0,10), [10,20), ...
  // Expiries at every instant in [5, 35): spans four buckets, including
  // partial buckets at both ends of each purge below.
  for (Timestamp exp = 5; exp < 35; ++exp) {
    store.Insert(100 + static_cast<VertexId>(exp), 7,
                 static_cast<LabelId>(exp % 3), Interval(0, exp));
  }
  ASSERT_EQ(store.NumEntries(), 30u);
  std::size_t live = 30;
  for (Timestamp t = 0; t < 40; t += 7) {  // 0, 7, 14, 21, 28, 35
    const std::size_t dropped = store.PurgeExpired(t);
    // Exactly the edges with exp <= t are gone, and every other one
    // survives.
    for (Timestamp exp = 5; exp < 35; ++exp) {
      const std::size_t present =
          store.OutEdges(100 + static_cast<VertexId>(exp),
                         static_cast<LabelId>(exp % 3)).size();
      EXPECT_EQ(present, exp <= t ? 0u : 1u)
          << "edge expiring at " << exp << ", t=" << t;
    }
    // Exactly the not-yet-dropped edges with exp <= t are counted.
    std::size_t expected = 0;
    for (Timestamp exp = 5; exp < 35; ++exp) {
      if (exp <= t && exp > t - 7) ++expected;
    }
    EXPECT_EQ(dropped, expected) << "t=" << t;
    live -= dropped;
    EXPECT_EQ(store.NumEntries(), live) << "t=" << t;
  }
  EXPECT_EQ(store.NumEntries(), 0u);
}

TEST(WindowEdgeStoreTest, NoExpiryPurgeTouchesNothing) {
  // The O(expiring bucket) contract: purges below every expiry must not
  // verify a single calendar hint, no matter how large the store is.
  WindowEdgeStore store;
  store.ConfigureExpirySlide(24);
  for (VertexId v = 0; v < 5000; ++v) {
    store.Insert(v, v + 1, 0, Interval(0, 100000 + static_cast<Timestamp>(v % 7)));
  }
  for (Timestamp t = 0; t < 99999; t += 997) {
    EXPECT_EQ(store.PurgeExpired(t), 0u);
  }
  EXPECT_EQ(store.expiry_hints_drained(), 0u);
  EXPECT_EQ(store.NumEntries(), 5000u);
}

TEST(WindowEdgeStoreTest, PurgeExpiredReturnsDropped) {
  WindowEdgeStore store;
  store.Insert(1, 2, 0, Interval(0, 10));
  store.Insert(1, 3, 0, Interval(0, 30));
  store.Insert(4, 5, 1, Interval(5, 8));
  EXPECT_EQ(store.PurgeExpired(10), 2u);
  EXPECT_EQ(store.NumEntries(), 1u);
  ASSERT_EQ(store.OutEdges(1, 0).size(), 1u);
  EXPECT_EQ(store.OutEdges(1, 0)[0].trg, 3u);
  EXPECT_EQ(store.OutEdges(1, 0)[0].validity, Interval(0, 30));
  EXPECT_TRUE(store.OutEdges(4, 1).empty());
}

}  // namespace
}  // namespace sgq
