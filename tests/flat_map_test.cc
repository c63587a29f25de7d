// Property tests of the flat state layer (common/flat_map.h,
// common/arena.h, common/small_vec.h, common/expiry_calendar.h):
// randomized insert/erase/find sequences mirrored against the std
// containers, rehash and erase-during-scan exercised under ASan, arena
// block reuse, and the expiry-calendar drain contract (every hint whose
// bucket passed is drained exactly when due; nothing is touched while
// nothing is due).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/arena.h"
#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "common/small_vec.h"

namespace sgq {
namespace {

// ---------------------------------------------------------------------------
// FlatMap vs std::unordered_map
// ---------------------------------------------------------------------------

TEST(FlatMapTest, BasicOperations) {
  FlatMap<uint64_t, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), map.end());

  map[7] = "seven";
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(7)->second, "seven");
  EXPECT_TRUE(map.contains(7));
  EXPECT_EQ(map.count(7), 1u);
  EXPECT_EQ(map.count(8), 0u);

  auto [it, inserted] = map.try_emplace(7, "again");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, "seven");

  auto [it2, inserted2] = map.insert_or_assign(7, "SEVEN");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "SEVEN");

  EXPECT_EQ(map.erase(7), 1u);
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, RandomizedMirrorsUnorderedMap) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    FlatMap<uint64_t, uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> ref;
    // Small key domain forces frequent hits, overwrites and erases.
    std::uniform_int_distribution<uint64_t> key_dist(0, 500);
    std::uniform_int_distribution<int> op_dist(0, 9);
    for (int step = 0; step < 20000; ++step) {
      const uint64_t k = key_dist(rng);
      switch (op_dist(rng)) {
        case 0:
        case 1:
        case 2:
        case 3:
          flat[k] = step;
          ref[k] = static_cast<uint64_t>(step);
          break;
        case 4: {
          auto [it, ins] = flat.try_emplace(k, step);
          auto [rit, rins] = ref.try_emplace(k, step);
          ASSERT_EQ(ins, rins);
          ASSERT_EQ(it->second, rit->second);
          break;
        }
        case 5:
        case 6:
          ASSERT_EQ(flat.erase(k), ref.erase(k));
          break;
        default: {
          auto it = flat.find(k);
          auto rit = ref.find(k);
          ASSERT_EQ(it == flat.end(), rit == ref.end());
          if (rit != ref.end()) {
            ASSERT_EQ(it->second, rit->second);
          }
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    // Full-content comparison, both directions.
    for (const auto& [k, v] : flat) {
      auto rit = ref.find(k);
      ASSERT_NE(rit, ref.end());
      ASSERT_EQ(v, rit->second);
    }
    for (const auto& [k, v] : ref) {
      auto it = flat.find(k);
      ASSERT_NE(it, flat.end());
      ASSERT_EQ(it->second, v);
    }
  }
}

TEST(FlatMapTest, GrowsThroughManyRehashes) {
  FlatMap<uint64_t, uint64_t> flat;
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) flat[i * 2654435761u] = i;
  EXPECT_EQ(flat.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    auto it = flat.find(i * 2654435761u);
    ASSERT_NE(it, flat.end());
    ASSERT_EQ(it->second, i);
  }
}

TEST(FlatMapTest, EraseDuringScanVisitsEveryElement) {
  // erase(it) during a forward scan: every element must be visited (a
  // wrap-around revisit is allowed, a skip is not), and exactly the
  // elements matching the predicate must be gone afterwards.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(seed * 977 + 13);
    FlatMap<uint64_t, uint64_t> flat;
    std::uniform_int_distribution<uint64_t> key_dist(0, 4000);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t k = key_dist(rng);
      flat[k] = k % 7;
    }
    std::unordered_map<uint64_t, uint64_t> expect;
    for (const auto& [k, v] : flat) {
      if (v != 0) expect.emplace(k, v);
    }
    for (auto it = flat.begin(); it != flat.end();) {
      if (it->second == 0) {
        it = flat.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_EQ(flat.size(), expect.size());
    for (const auto& [k, v] : expect) {
      auto it = flat.find(k);
      ASSERT_NE(it, flat.end());
      ASSERT_EQ(it->second, v);
    }
  }
}

TEST(FlatMapTest, ClearKeepsCapacityAndWorksAgain) {
  FlatMap<uint64_t, uint64_t> flat;
  for (uint64_t i = 0; i < 1000; ++i) flat[i] = i;
  const std::size_t bytes = flat.capacity_bytes();
  flat.clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.capacity_bytes(), bytes);
  for (uint64_t i = 0; i < 1000; ++i) flat[i] = i + 1;
  EXPECT_EQ(flat.size(), 1000u);
  EXPECT_EQ(flat.find(999)->second, 1000u);
}

TEST(FlatMapTest, CopyAndMoveSemantics) {
  FlatMap<uint64_t, std::string> a;
  for (uint64_t i = 0; i < 100; ++i) a[i] = std::to_string(i);
  FlatMap<uint64_t, std::string> b = a;  // copy
  EXPECT_EQ(b.size(), 100u);
  a.clear();
  EXPECT_EQ(b.find(42)->second, "42");  // copy is independent
  FlatMap<uint64_t, std::string> c = std::move(b);  // move
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.find(42)->second, "42");
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(FlatMapTest, StringKeys) {
  FlatMap<std::string, int> map;
  std::unordered_map<std::string, int> ref;
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "key_" + std::to_string(i % 257);
    map[k] = i;
    ref[k] = i;
  }
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = map.find(k);
    ASSERT_NE(it, map.end());
    ASSERT_EQ(it->second, v);
  }
}

TEST(FlatMapTest, ReserveAvoidsRehash) {
  FlatMap<uint64_t, uint64_t> flat;
  flat.reserve(1000);
  const std::size_t bytes = flat.capacity_bytes();
  for (uint64_t i = 0; i < 1000; ++i) flat[i] = i;
  EXPECT_EQ(flat.capacity_bytes(), bytes);
}

TEST(FlatMapTest, ShrinkToFitMirrorsUnorderedMapAndKeepsItsLoadBand) {
  std::size_t shrunk = 0;
  std::size_t kept = 0;
  std::size_t freed = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    // Non-trivial values: a shrink moves every element.
    FlatMap<uint64_t, std::string> flat;
    std::unordered_map<uint64_t, std::string> ref;
    std::uniform_int_distribution<uint64_t> key_dist(0, 5000);
    std::uniform_int_distribution<int> burst_dist(0, 3000);
    std::uniform_int_distribution<int> keep_dist(0, 100);
    for (int round = 0; round < 60; ++round) {
      // A burst of inserts, then erasures down to a random share (none
      // every tenth round): the load crosses 1/8 both ways across rounds.
      for (int i = burst_dist(rng); i > 0; --i) {
        const uint64_t k = key_dist(rng);
        flat[k] = std::to_string(k);
        ref[k] = std::to_string(k);
      }
      const int keep_pct = round % 10 == 9 ? 0 : keep_dist(rng);
      std::vector<uint64_t> keys;
      for (const auto& [k, v] : ref) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      std::shuffle(keys.begin(), keys.end(), rng);
      keys.resize(keys.size() - keys.size() * static_cast<std::size_t>(
                                                  keep_pct) / 100);
      for (const uint64_t k : keys) {
        ASSERT_EQ(flat.erase(k), 1u);
        ref.erase(k);
      }

      const std::size_t cap = flat.capacity();
      const std::size_t size = flat.size();
      ASSERT_EQ(flat.shrink_due(), size == 0 ? cap != 0 : size * 8 < cap);
      flat.ShrinkToFit();
      if (size == 0) {
        // An emptied table frees its arrays.
        EXPECT_EQ(flat.capacity(), 0u);
        EXPECT_EQ(flat.capacity_bytes(), 0u);
        freed += cap != 0;
      } else if (size * 8 < cap) {
        // Under 1/8: halved down to a load in [3/16, 3/8), or 8 slots.
        ++shrunk;
        EXPECT_LT(flat.capacity(), cap);
        EXPECT_TRUE(flat.capacity() == 8 || size * 16 >= flat.capacity() * 3)
            << size << " in " << flat.capacity();
        EXPECT_LT(size * 8, flat.capacity() * 3) << size << " in "
                                                 << flat.capacity();
      } else {
        ++kept;
        EXPECT_EQ(flat.capacity(), cap);
      }
      EXPECT_FALSE(flat.shrink_due());

      // Lookups and iteration are intact.
      ASSERT_EQ(flat.size(), ref.size());
      for (const auto& [k, v] : ref) {
        auto it = flat.find(k);
        ASSERT_NE(it, flat.end()) << k;
        EXPECT_EQ(it->second, v);
      }
      std::size_t visited = 0;
      for (const auto& [k, v] : flat) {
        ++visited;
        ASSERT_EQ(ref.count(k), 1u) << k;
        EXPECT_EQ(ref.at(k), v);
      }
      EXPECT_EQ(visited, ref.size());
    }
  }
  EXPECT_GT(shrunk, 0u);
  EXPECT_GT(kept, 0u);
  EXPECT_GT(freed, 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SGQ_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SGQ_TEST_SANITIZED 1
#endif
#endif

#if defined(__GLIBC__) && !defined(SGQ_TEST_SANITIZED)
/// VmRSS of this process from /proc/self/status, in bytes (0 if absent).
std::size_t VmRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

void* volatile g_escaped_block = nullptr;
#endif

TEST(FlatMapTest, LargeTableLeavesTheProcessWhenDestroyed) {
#if !defined(__GLIBC__) || defined(SGQ_TEST_SANITIZED)
  GTEST_SKIP() << "measures glibc's heap; sanitizers replace the allocator";
#else
  // Freeing a 16 MiB block raises glibc's dynamic mmap threshold above
  // 8 MiB, as an embedding program's freed result vectors do: from then
  // on malloc serves an 8 MiB table from the heap, which keeps it.
  constexpr std::size_t kBlock = std::size_t{16} << 20;
  g_escaped_block = std::malloc(kBlock);
  ASSERT_NE(g_escaped_block, nullptr);
  std::memset(g_escaped_block, 1, kBlock);
  std::free(g_escaped_block);
  g_escaped_block = nullptr;

  std::size_t built = 0;
  std::size_t table_bytes = 0;
  {
    // 300,000 keys in 2^19 16-byte slots: 8.5 MiB of arrays.
    FlatMap<uint64_t, uint64_t> map;
    map.reserve(300000);
    for (uint64_t k = 0; k < 300000; ++k) map[k] = k;
    table_bytes = map.capacity_bytes();
    built = VmRssBytes();
  }
  const std::size_t after = VmRssBytes();
  ASSERT_GE(table_bytes, std::size_t{8} << 20);
  ASSERT_GT(built, 0u);
  EXPECT_GE(built, after + (std::size_t{6} << 20))
      << "VmRSS " << built << " B with the table, " << after
      << " B after destroying it";
#endif
}

// ---------------------------------------------------------------------------
// FlatSet vs std::unordered_set
// ---------------------------------------------------------------------------

TEST(FlatSetTest, RandomizedMirrorsUnorderedSet) {
  std::mt19937_64 rng(99);
  FlatSet<uint64_t> flat;
  std::unordered_set<uint64_t> ref;
  std::uniform_int_distribution<uint64_t> key_dist(0, 300);
  for (int step = 0; step < 10000; ++step) {
    const uint64_t k = key_dist(rng);
    if (step % 3 == 0) {
      ASSERT_EQ(flat.erase(k), ref.erase(k));
    } else {
      ASSERT_EQ(flat.insert(k).second, ref.insert(k).second);
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.contains(k), ref.count(k) > 0);
  }
  std::vector<uint64_t> drained(flat.begin(), flat.end());
  std::sort(drained.begin(), drained.end());
  std::vector<uint64_t> expected(ref.begin(), ref.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(drained, expected);
}

// ---------------------------------------------------------------------------
// Arena / SlabPool / SmallRun
// ---------------------------------------------------------------------------

TEST(ArenaTest, AllocatesAlignedAndTracksBytes) {
  Arena arena(1024);
  void* a = arena.Allocate(10);
  void* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Arena::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Arena::kAlign, 0u);
  EXPECT_GE(arena.used_bytes(), 110u);
  // Oversized request gets a dedicated slab; bump slab keeps filling.
  void* big = arena.Allocate(4096);
  std::memset(big, 0xab, 4096);
  void* c = arena.Allocate(16);
  std::memset(c, 0xcd, 16);
  EXPECT_GE(arena.reserved_bytes(), 4096u + 1024u);
}

TEST(SlabPoolTest, ReusesFreedBlocks) {
  SlabPool pool(1 << 12);
  void* a = pool.Alloc(100);  // class 128
  pool.Free(a, 100);
  void* b = pool.Alloc(120);  // same class: must reuse the freed block
  EXPECT_EQ(a, b);
  const std::size_t reserved = pool.reserved_bytes();
  for (int i = 0; i < 100; ++i) {
    void* p = pool.Alloc(100);
    pool.Free(p, 100);
  }
  EXPECT_EQ(pool.reserved_bytes(), reserved);  // steady state: no growth
}

TEST(SmallRunTest, InlineThenOverflow) {
  SlabPool pool;
  SmallRun<uint64_t, 2> run;
  run.push_back(&pool, 1);
  run.push_back(&pool, 2);
  EXPECT_EQ(run.overflow_bytes(), 0u);  // still inline
  run.push_back(&pool, 3);
  EXPECT_GT(run.overflow_bytes(), 0u);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0], 1u);
  EXPECT_EQ(run[1], 2u);
  EXPECT_EQ(run[2], 3u);
  run.erase_at(1);  // ordered erase
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0], 1u);
  EXPECT_EQ(run[1], 3u);
  run.push_back(&pool, 4);
  run.swap_pop(0);  // unordered erase
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0], 4u);
  run.Release(&pool);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(run.overflow_bytes(), 0u);
}

TEST(SmallRunTest, GrowsLargeAndMoves) {
  SlabPool pool;
  SmallRun<uint64_t, 2> run;
  for (uint64_t i = 0; i < 1000; ++i) run.push_back(&pool, i);
  ASSERT_EQ(run.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(run[i], i);
  SmallRun<uint64_t, 2> moved = std::move(run);
  ASSERT_EQ(moved.size(), 1000u);
  EXPECT_EQ(moved[999], 999u);
  EXPECT_TRUE(run.empty());  // NOLINT(bugprone-use-after-move)
  moved.Release(&pool);
}

// ---------------------------------------------------------------------------
// PoolVec (non-trivial, memcpy-relocatable payloads)
// ---------------------------------------------------------------------------

namespace {

/// Payload owning heap memory (a SmallVec that overflows), with a live
/// instance counter — catches both leaked and double-run destructors.
struct TrackedPayload {
  static int live;
  SmallVec<uint64_t, 2> values;
  explicit TrackedPayload(uint64_t seedval = 0) {
    for (uint64_t i = 0; i < 8; ++i) values.push_back(seedval + i);
    ++live;
  }
  TrackedPayload(const TrackedPayload& o) : values(o.values) { ++live; }
  TrackedPayload(TrackedPayload&& o) noexcept
      : values(std::move(o.values)) {
    ++live;
  }
  TrackedPayload& operator=(TrackedPayload&&) noexcept = default;
  ~TrackedPayload() { --live; }
};
int TrackedPayload::live = 0;

}  // namespace

TEST(PoolVecTest, InlineThenPoolOverflowRunsDestructors) {
  {
    PoolVec<TrackedPayload, 1> run;
    run.push_back(TrackedPayload(10));
    EXPECT_EQ(run.overflow_bytes(), 0u);  // single element stays inline
    run.push_back(TrackedPayload(20));
    run.push_back(TrackedPayload(30));
    // Capacity 1 -> 2 -> 4; the block is exactly 4 elements, unrounded.
    EXPECT_EQ(run.overflow_bytes(), 4 * sizeof(TrackedPayload));
    ASSERT_EQ(run.size(), 3u);
    EXPECT_EQ(run[0].values[0], 10u);
    EXPECT_EQ(run[1].values[0], 20u);
    EXPECT_EQ(run[2].values[0], 30u);
    EXPECT_EQ(TrackedPayload::live, 3);
    run.truncate(1);  // destroys the tail
    EXPECT_EQ(TrackedPayload::live, 1);
    EXPECT_EQ(run[0].values[7], 17u);
    run.Release();
    EXPECT_EQ(TrackedPayload::live, 0);
    EXPECT_EQ(run.overflow_bytes(), 0u);
  }
  EXPECT_EQ(TrackedPayload::live, 0);
}

TEST(PoolVecTest, DestructorReleasesElementsAndBlock) {
  {
    PoolVec<TrackedPayload, 1> run;
    for (uint64_t i = 0; i < 50; ++i) run.push_back(TrackedPayload(i));
    EXPECT_EQ(TrackedPayload::live, 50);
  }  // ~PoolVec: element destructors run and the block is freed (the
     // sanitizer build's leak checker fails the test otherwise)
  EXPECT_EQ(TrackedPayload::live, 0);
}

TEST(PoolVecTest, MoveTransfersElementsAndCompactionWorks) {
  PoolVec<TrackedPayload, 1> run;
  for (uint64_t i = 0; i < 10; ++i) run.push_back(TrackedPayload(i));
  PoolVec<TrackedPayload, 1> moved = std::move(run);
  EXPECT_TRUE(run.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[9].values[0], 9u);
  EXPECT_EQ(TrackedPayload::live, 10);
  // Move-assigning over a run that holds a block destroys its elements
  // and frees its block (the leak checker catches an abandoned one).
  PoolVec<TrackedPayload, 1> target;
  for (uint64_t i = 100; i < 105; ++i) target.push_back(TrackedPayload(i));
  ASSERT_GT(target.overflow_bytes(), 0u);
  EXPECT_EQ(TrackedPayload::live, 15);
  target = std::move(moved);
  EXPECT_EQ(TrackedPayload::live, 10);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.overflow_bytes(), 0u);
  moved = std::move(target);
  EXPECT_EQ(target.overflow_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[9].values[0], 9u);
  // Keep-compaction idiom used by PatternOp's scrub/purge: move survivors
  // down, truncate the tail.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    if (moved[i].values[0] % 2 != 0) continue;  // drop odd seeds
    if (keep != i) moved[keep] = std::move(moved[i]);
    ++keep;
  }
  moved.truncate(keep);
  ASSERT_EQ(moved.size(), 5u);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i].values[0], 2 * i);
  }
  EXPECT_EQ(TrackedPayload::live, 5);
  moved.Release();
  EXPECT_EQ(TrackedPayload::live, 0);
  EXPECT_EQ(moved.overflow_bytes(), 0u);
}

TEST(PoolVecTest, WorksAsFlatMapValue) {
  // The PatternOp bucket configuration: FlatMap slots hold PoolVec runs,
  // robin-hood shifts and rehashes relocate them.
  FlatMap<uint64_t, PoolVec<TrackedPayload, 1>> table;
  for (uint64_t k = 0; k < 200; ++k) {
    auto [it, inserted] = table.try_emplace(k);
    EXPECT_TRUE(inserted);
    for (uint64_t i = 0; i <= k % 3; ++i) {
      it->second.push_back(TrackedPayload(100 * k + i));
    }
  }
  std::size_t total = 0;
  for (auto& [k, run] : table) {
    ASSERT_EQ(run.size(), k % 3 + 1) << k;
    for (std::size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(run[i].values[0], 100 * k + i);
    }
    total += run.size();
  }
  EXPECT_EQ(TrackedPayload::live, static_cast<int>(total));
  // Erase half the keys; each erased run frees its own block.
  for (uint64_t k = 0; k < 200; k += 2) {
    auto it = table.find(k);
    ASSERT_NE(it, table.end());
    table.erase(it);
  }
  EXPECT_EQ(table.size(), 100u);
  table.clear();
  EXPECT_EQ(TrackedPayload::live, 0);
}

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

TEST(SmallVecTest, ValueSemanticsAndComparison) {
  SmallVec<uint64_t, 4> a;
  a.assign(3, 7);
  SmallVec<uint64_t, 4> b = a;
  EXPECT_TRUE(a == b);
  b[1] = 8;
  EXPECT_TRUE(a != b);
  // Overflow past the inline capacity.
  SmallVec<uint64_t, 4> c;
  for (uint64_t i = 0; i < 100; ++i) c.push_back(i);
  ASSERT_EQ(c.size(), 100u);
  SmallVec<uint64_t, 4> d = c;
  EXPECT_TRUE(c == d);
  SmallVec<uint64_t, 4> e = std::move(c);
  EXPECT_TRUE(e == d);
  EXPECT_EQ(e[99], 99u);
  // Hash equals on equal content regardless of storage mode.
  SmallVec<uint64_t, 2> small_storage;
  SmallVec<uint64_t, 64> big_storage;
  for (uint64_t i = 0; i < 10; ++i) {
    small_storage.push_back(i);
    big_storage.push_back(i);
  }
  EXPECT_EQ(SmallVecHash{}(small_storage), SmallVecHash{}(big_storage));
}

TEST(SmallVecTest, ShrinkingBackInlineFreesTheHeapBlock) {
  SmallVec<uint64_t, 2> v;
  for (uint64_t i = 0; i < 5; ++i) v.push_back(i);
  EXPECT_EQ(v.overflow_bytes(), 8 * sizeof(uint64_t));
  v.erase_range(1, 3);  // {0, 3, 4}: still on the heap
  EXPECT_GT(v.overflow_bytes(), 0u);
  v.erase_range(0, 1);  // {3, 4}: fits inline again
  EXPECT_EQ(v.overflow_bytes(), 0u);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v[1], 4u);
  v.push_back(5);  // overflows again
  EXPECT_GT(v.overflow_bytes(), 0u);
  v.clear();
  EXPECT_EQ(v.overflow_bytes(), 0u);
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// ExpiryCalendar
// ---------------------------------------------------------------------------

TEST(ExpiryCalendarTest, DrainsExactlyDueBucketsAcrossBoundaries) {
  ExpiryCalendar<uint64_t> cal;
  cal.ConfigureSlide(10);
  // Hints expiring at every instant in [5, 35).
  for (uint64_t id = 5; id < 35; ++id) {
    cal.Add(static_cast<Timestamp>(id), id);
  }
  EXPECT_EQ(cal.num_hints(), 30u);

  std::set<uint64_t> live;
  for (uint64_t id = 5; id < 35; ++id) live.insert(id);

  // Advance to 17: buckets 0 [0,10) and 1 [10,20) are due. The callback
  // expires hints <= now and re-registers in-bucket survivors (18, 19).
  const Timestamp now1 = 17;
  std::set<uint64_t> drained1;
  cal.DrainDue(now1, [&](Timestamp exp, uint64_t id) {
    drained1.insert(id);
    EXPECT_EQ(exp, static_cast<Timestamp>(id));  // the registered expiry
    if (exp <= now1) {
      live.erase(id);
    } else if (cal.NeedsReAdd(exp, now1)) {
      cal.Add(exp, id);
    }
  });
  // Exactly the hints of buckets 0 and 1 were touched.
  for (uint64_t id = 5; id < 20; ++id) EXPECT_TRUE(drained1.count(id)) << id;
  for (uint64_t id = 20; id < 35; ++id) EXPECT_FALSE(drained1.count(id));
  // Live = everything with exp > 17.
  EXPECT_EQ(live.size(), 17u);
  EXPECT_EQ(*live.begin(), 18u);

  // Nothing further is due until 20: the drain must touch nothing at 19
  // except the re-registered bucket-1 survivors.
  const std::size_t drained_before = cal.hints_drained();
  std::set<uint64_t> drained2;
  cal.DrainDue(19, [&](Timestamp exp, uint64_t id) {
    drained2.insert(id);
    EXPECT_EQ(exp, static_cast<Timestamp>(id));
    if (exp <= 19) {
      live.erase(id);
    } else if (cal.NeedsReAdd(exp, 19)) {
      cal.Add(exp, id);
    }
  });
  EXPECT_EQ(drained2, (std::set<uint64_t>{18, 19}));
  EXPECT_EQ(cal.hints_drained(), drained_before + 2);
  EXPECT_EQ(live.size(), 15u);

  // Far advance drains every remaining bucket.
  cal.DrainDue(100, [&](Timestamp exp, uint64_t id) {
    EXPECT_EQ(exp, static_cast<Timestamp>(id));
    live.erase(id);
  });
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(cal.num_hints(), 0u);
}

TEST(ExpiryCalendarTest, NothingDueTouchesNothing) {
  ExpiryCalendar<uint64_t> cal;
  cal.ConfigureSlide(24);
  for (uint64_t id = 0; id < 10000; ++id) {
    cal.Add(static_cast<Timestamp>(1000 + id % 50), id);
  }
  // Every expiry lies at >= 1000; advancing below that must not invoke
  // the callback at all — the O(expiring bucket) contract.
  for (Timestamp now = 0; now < 999; now += 7) {
    cal.DrainDue(now, [&](Timestamp, uint64_t) { FAIL() << "nothing is due"; });
  }
  EXPECT_EQ(cal.hints_drained(), 0u);
  EXPECT_EQ(cal.num_hints(), 10000u);
}

TEST(ExpiryCalendarTest, ReconfigureSlideRebuckets) {
  ExpiryCalendar<uint64_t> cal;  // default slide 1
  for (uint64_t id = 0; id < 100; ++id) {
    cal.Add(static_cast<Timestamp>(id), id);
  }
  cal.ConfigureSlide(25);
  EXPECT_EQ(cal.num_hints(), 100u);
  std::set<uint64_t> drained;
  cal.DrainDue(49, [&](Timestamp exp, uint64_t id) {
    EXPECT_EQ(exp, static_cast<Timestamp>(id));  // re-bucketed, not moved
    if (exp <= 49) drained.insert(id);
  });
  EXPECT_EQ(drained.size(), 50u);  // exactly exps 0..49
}

TEST(ExpiryCalendarTest, RandomizedAgainstReferenceModel) {
  // Out-of-order expiries (earlier than every pending bucket, between
  // buckets, after a drain emptied the calendar), adds from inside drain
  // callbacks, and drains at arbitrary instants: AnyDue is exact, every
  // pending hint with exp <= now is delivered, nothing outside the due
  // buckets is,
  // delivery goes bucket by bucket in registration order, and the
  // checkpoint visit order replays into the same schedule.
  std::mt19937 rng(20221);
  for (int round = 0; round < 20; ++round) {
    ExpiryCalendar<uint64_t> cal;
    const Timestamp slide = 1 + static_cast<Timestamp>(rng() % 7);
    cal.ConfigureSlide(slide);
    std::multiset<std::pair<Timestamp, uint64_t>> pending;
    uint64_t next_id = 0;
    Timestamp now = 0;
    for (int step = 0; step < 400; ++step) {
      if (rng() % 3 != 0) {
        const Timestamp exp = now + static_cast<Timestamp>(rng() % 60);
        cal.Add(exp, next_id);
        pending.insert({exp, next_id++});
        continue;
      }
      now += static_cast<Timestamp>(rng() % 9);
      // Due exactly when some pending hint expires at or before now.
      ASSERT_EQ(cal.AnyDue(now),
                !pending.empty() && pending.begin()->first <= now);
      std::vector<std::pair<Timestamp, uint64_t>> delivered;
      cal.DrainDue(now, [&](Timestamp exp, uint64_t id) {
        delivered.push_back({exp, id});
        if (exp > now && rng() % 2 == 0) {  // survivor re-registers
          cal.Add(exp, next_id);
          pending.insert({exp, next_id++});
        }
      });
      for (std::size_t i = 0; i < delivered.size(); ++i) {
        const auto it = pending.find(delivered[i]);
        ASSERT_NE(it, pending.end()) << "delivered a hint never added";
        pending.erase(it);
        EXPECT_LE(delivered[i].first / slide, now / slide);
        if (i > 0) {
          const Timestamp prev = delivered[i - 1].first / slide;
          const Timestamp cur = delivered[i].first / slide;
          EXPECT_TRUE(prev < cur ||
                      (prev == cur &&
                       delivered[i - 1].second < delivered[i].second));
        }
      }
      for (const auto& [exp, id] : pending) {
        ASSERT_GT(exp, now) << "hint " << id << " due but not delivered";
      }
      ASSERT_EQ(cal.num_hints(), pending.size());
    }
    ExpiryCalendar<uint64_t> replay;
    replay.ConfigureSlide(slide);
    cal.VisitEntries([&](Timestamp exp, uint64_t id) { replay.Add(exp, id); });
    std::vector<uint64_t> a;
    std::vector<uint64_t> b;
    cal.DrainDue(kMaxTimestamp - 1, [&](Timestamp, uint64_t id) {
      a.push_back(id);
    });
    replay.DrainDue(kMaxTimestamp - 1, [&](Timestamp, uint64_t id) {
      b.push_back(id);
    });
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), pending.size());
    EXPECT_EQ(cal.num_hints(), 0u);
  }
}

TEST(ExpiryCalendarTest, MaxTimestampNeverRegisters) {
  ExpiryCalendar<int> cal;
  cal.Add(kMaxTimestamp, 1);
  EXPECT_EQ(cal.num_hints(), 0u);
  cal.DrainDue(kMaxTimestamp - 1, [&](Timestamp, int) { FAIL(); });
}

}  // namespace
}  // namespace sgq
