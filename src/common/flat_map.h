// Open-addressing flat hash containers for hot operator state.
//
// FlatMap/FlatSet replace std::unordered_map/std::unordered_set on the
// paths the paper's evaluation shows dominate tail latency: spanning-forest
// node lookups, window-adjacency probes, and PATTERN join-table access.
// The design is ordered robin-hood probing over one contiguous slot array:
//
//  - power-of-two capacity, probe sequence i, i+1, ... (cache-linear);
//  - one metadata byte per slot holding probe distance + 1 (0 = empty), so
//    probes touch a dense byte array before any key comparison;
//  - inserts keep every probe chain ordered by distance ("ordered robin
//    hood"): a new element is placed at its insertion point and the tail
//    of the chain shifts right one slot — no tombstones ever;
//  - erase reverses that with a backward shift, so deletion-heavy
//    workloads (window expiry, retraction scrubs) cannot degrade the
//    table the way tombstone schemes do;
//  - hashes are finalized with a 64-bit mixer before masking, so identity
//    std::hash (libstdc++ integers) still spreads across buckets.
//
// The API is the std::unordered_map subset the engine uses (find /
// operator[] / try_emplace / insert_or_assign / emplace / erase / range
// iteration / clear / reserve), plus ShrinkToFit, which owners call after
// a purge so a table that emptied out gives its memory back. The slot
// and metadata arrays are one PageAllocate block (common/page_allocator.h):
// a large table maps pages of its own and unmaps them when it rehashes,
// shrinks or dies. Semantics differences, by design:
//
//  - iteration order is the slot order (hash order), not insertion order,
//    and differs from std::unordered_map — callers whose emission order is
//    observable must drain through an explicit sort (see DESIGN.md,
//    "State layout");
//  - references and iterators are invalidated by rehash (growth or
//    ShrinkToFit) AND by any insert/erase (elements shift within the
//    array);
//  - erase(it) returns the iterator to continue a forward scan with; when
//    the backward shift wraps around the array end, an already-visited
//    element can be revisited — erase-during-scan predicates must be
//    idempotent (every caller in this codebase purges by expiry, which
//    is).
//
// Property-tested against std::unordered_map in tests/flat_map_test.cc.

#ifndef SGQ_COMMON_FLAT_MAP_H_
#define SGQ_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "common/page_allocator.h"

namespace sgq {

/// \brief 64-bit finalizer (splitmix64) applied to every hash before
/// masking: power-of-two tables need the low bits to depend on all input
/// bits, and std::hash for integers is the identity on libstdc++.
inline std::size_t FlatHashMix(std::size_t h) {
  uint64_t x = static_cast<uint64_t>(h);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

/// \brief Flat hash map. See the file comment for the API contract.
template <typename Key, typename T, typename Hash = std::hash<Key>,
          typename KeyEqual = std::equal_to<Key>>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  /// Unlike std::unordered_map the key is not const-qualified: slots move
  /// during shifts and rehash. Callers must not mutate `first` in place.
  using value_type = std::pair<Key, T>;

  template <bool kConst>
  class Iterator {
   public:
    using map_type = std::conditional_t<kConst, const FlatMap, FlatMap>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference =
        std::conditional_t<kConst, const value_type&, value_type&>;
    using pointer =
        std::conditional_t<kConst, const value_type*, value_type*>;

    Iterator() = default;
    Iterator(map_type* map, std::size_t index) : map_(map), index_(index) {}
    /// Const iterators construct from mutable ones (std compatibility).
    template <bool kOther,
              typename = std::enable_if_t<kConst && !kOther>>
    Iterator(const Iterator<kOther>& o) : map_(o.map_), index_(o.index_) {}

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }

    Iterator& operator++() {
      ++index_;
      SkipEmpty();
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }

    template <bool kOther>
    bool operator==(const Iterator<kOther>& o) const {
      return index_ == o.index_;
    }
    template <bool kOther>
    bool operator!=(const Iterator<kOther>& o) const {
      return index_ != o.index_;
    }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iterator;
    void SkipEmpty() {
      while (index_ < map_->capacity_ && map_->dist_[index_] == 0) ++index_;
    }

    map_type* map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  FlatMap() = default;

  FlatMap(const FlatMap& other) { CopyFrom(other); }
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      Destroy();
      CopyFrom(other);
    }
    return *this;
  }

  FlatMap(FlatMap&& other) noexcept { Steal(&other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      Destroy();
      Steal(&other);
    }
    return *this;
  }

  ~FlatMap() { Destroy(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() {
    iterator it(this, 0);
    it.SkipEmpty();
    return it;
  }
  const_iterator begin() const {
    const_iterator it(this, 0);
    it.SkipEmpty();
    return it;
  }
  iterator end() { return iterator(this, capacity_); }
  const_iterator end() const { return const_iterator(this, capacity_); }

  void clear() {
    if (capacity_ == 0) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (dist_[i] != 0) slots_[i].~value_type();
    }
    std::memset(dist_, 0, capacity_);
    size_ = 0;
  }

  /// \brief Grows the table so `n` elements fit without rehash (0: no-op).
  void reserve(std::size_t n) {
    if (n == 0) return;
    std::size_t want = kMinCapacity;
    while (want * 3 < n * 4) want <<= 1;  // invert the 0.75 load bound
    if (want > capacity_) Rehash(want);
  }

  /// \brief Gives memory back after erasures. An empty table frees its
  /// arrays. Otherwise, while the load is under 1/8, the table halves
  /// until its load is at least 3/16 (or it is down to 8 slots), so it
  /// ends between 3/16 and 3/8 — clear of growth at 3/4, and at least
  /// capacity / 16 erasures away from the next shrink, which pays for
  /// the O(capacity) rehash. O(1) when nothing shrinks.
  void ShrinkToFit() {
    if (!shrink_due()) return;
    if (size_ == 0) {
      Destroy();
      return;
    }
    std::size_t want = capacity_;
    while (want > kMinCapacity && size_ * 16 < want * 3) want >>= 1;
    Rehash(want);
  }

  iterator find(const Key& key) {
    const std::size_t i = FindSlot(key);
    return i == kNpos ? end() : iterator(this, i);
  }
  const_iterator find(const Key& key) const {
    const std::size_t i = FindSlot(key);
    return i == kNpos ? end() : const_iterator(this, i);
  }
  std::size_t count(const Key& key) const {
    return FindSlot(key) == kNpos ? 0 : 1;
  }
  bool contains(const Key& key) const { return FindSlot(key) != kNpos; }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    std::size_t i = FindSlot(key);
    if (i != kNpos) return {iterator(this, i), false};
    i = InsertNew(key, T(std::forward<Args>(args)...));
    return {iterator(this, i), true};
  }

  /// \brief std::unordered_map::emplace for the (key, value) arity the
  /// engine uses.
  std::pair<iterator, bool> emplace(const Key& key, T value) {
    std::size_t i = FindSlot(key);
    if (i != kNpos) return {iterator(this, i), false};
    i = InsertNew(key, std::move(value));
    return {iterator(this, i), true};
  }

  std::pair<iterator, bool> insert_or_assign(const Key& key, T value) {
    std::size_t i = FindSlot(key);
    if (i != kNpos) {
      slots_[i].second = std::move(value);
      return {iterator(this, i), false};
    }
    i = InsertNew(key, std::move(value));
    return {iterator(this, i), true};
  }

  std::size_t erase(const Key& key) {
    const std::size_t i = FindSlot(key);
    if (i == kNpos) return 0;
    EraseSlot(i);
    return 1;
  }

  /// \brief Erases the element at `it` and returns the iterator to resume
  /// a forward scan with (the same slot when the backward shift refilled
  /// it). See the file comment for the wrap-around revisit caveat.
  iterator erase(iterator it) {
    assert(it.map_ == this && it.index_ < capacity_ &&
           dist_[it.index_] != 0);
    EraseSlot(it.index_);
    iterator next(this, it.index_);
    next.SkipEmpty();
    return next;
  }

  /// \brief Bytes resident in the slot and metadata arrays (capacity, not
  /// size); element-owned heap memory is not included.
  std::size_t capacity_bytes() const {
    return capacity_ * (sizeof(value_type) + 1);
  }

  std::size_t capacity() const { return capacity_; }

  /// \brief True when ShrinkToFit would shrink or free the arrays: the
  /// table is empty but allocated, or under 1/8 full (then above 8 slots).
  bool shrink_due() const {
    return size_ == 0 ? capacity_ != 0 : size_ * 8 < capacity_;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 8;
  /// Probe distances are uint8 (0 = empty, 1 = home slot); chains close to
  /// the limit force a rehash, which shortens them.
  static constexpr unsigned kMaxDist = 250;

  std::size_t IndexFor(const Key& key) const {
    return FlatHashMix(Hash{}(key)) & (capacity_ - 1);
  }

  std::size_t FindSlot(const Key& key) const {
    if (size_ == 0) return kNpos;
    std::size_t i = IndexFor(key);
    unsigned d = 1;
    while (true) {
      const unsigned slot_d = dist_[i];
      if (slot_d < d) return kNpos;  // empty or poorer: key is absent
      if (slot_d == d && KeyEqual{}(slots_[i].first, key)) return i;
      i = (i + 1) & (capacity_ - 1);
      ++d;
    }
  }

  /// \brief Inserts a key known to be absent; returns its slot.
  std::size_t InsertNew(const Key& key, T value) {
    if (capacity_ == 0 || (size_ + 1) * 4 > capacity_ * 3) {
      Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    }
    while (true) {
      const std::size_t i = TryPlace(key, &value);
      if (i != kNpos) {
        ++size_;
        return i;
      }
      Rehash(capacity_ * 2);  // probe chain hit kMaxDist
    }
  }

  /// \brief Ordered robin-hood placement: finds the insertion point of
  /// `key`, shifts the tail of the chain right one slot, and constructs
  /// the element there. Returns kNpos when a shifted distance would
  /// overflow (caller rehashes).
  std::size_t TryPlace(const Key& key, T* value) {
    const std::size_t mask = capacity_ - 1;
    std::size_t i = IndexFor(key);
    unsigned d = 1;
    // Insertion point: the first slot whose occupant is closer to home
    // than `key` would be (or an empty slot).
    while (dist_[i] >= d) {
      i = (i + 1) & mask;
      ++d;
      if (d > kMaxDist) return kNpos;
    }
    if (dist_[i] != 0) {
      // Find the end of the occupied run, then shift it right one slot.
      std::size_t empty = i;
      while (dist_[empty] != 0) {
        if (dist_[empty] >= kMaxDist) return kNpos;
        empty = (empty + 1) & mask;
      }
      for (std::size_t j = empty; j != i;) {
        const std::size_t prev = (j + capacity_ - 1) & mask;
        new (&slots_[j]) value_type(std::move(slots_[prev]));
        slots_[prev].~value_type();
        dist_[j] = static_cast<uint8_t>(dist_[prev] + 1);
        j = prev;
      }
    }
    new (&slots_[i]) value_type(key, std::move(*value));
    dist_[i] = static_cast<uint8_t>(d);
    return i;
  }

  void EraseSlot(std::size_t i) {
    const std::size_t mask = capacity_ - 1;
    slots_[i].~value_type();
    std::size_t cur = i;
    std::size_t next = (i + 1) & mask;
    while (dist_[next] > 1) {  // backward-shift the rest of the chain
      new (&slots_[cur]) value_type(std::move(slots_[next]));
      slots_[next].~value_type();
      dist_[cur] = static_cast<uint8_t>(dist_[next] - 1);
      cur = next;
      next = (next + 1) & mask;
    }
    dist_[cur] = 0;
    --size_;
  }

  void Rehash(std::size_t new_capacity) {
    FlatMap old;
    old.Steal(this);
    AllocateArrays(new_capacity);
    size_ = old.size_;
    for (std::size_t i = 0; i < old.capacity_; ++i) {
      if (old.dist_[i] == 0) continue;
      value_type& slot = old.slots_[i];
      // A fresh table at <= 0.75 load with a mixed hash cannot produce a
      // probe chain near kMaxDist (robin-hood max probe length is
      // O(log n) in expectation; 250 is orders of magnitude above any
      // observable chain), so placement here must succeed.
      const std::size_t placed = TryPlace(slot.first, &slot.second);
      assert(placed != kNpos && "probe chain overflow during rehash");
      (void)placed;
    }
  }

  /// One block, the slot array then the probe-distance bytes: a table
  /// below the page threshold is one heap block, not two, which leaves
  /// the heap fewer fragments to keep. (Under ASan the block's bounds are
  /// checked as a whole.)
  void AllocateArrays(std::size_t capacity) {
    static_assert(alignof(value_type) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "slots are PageAllocate storage");
    capacity_ = capacity;
    size_ = 0;
    slots_ = static_cast<value_type*>(PageAllocate(capacity_bytes()));
    dist_ = reinterpret_cast<uint8_t*>(slots_ + capacity_);
    std::memset(dist_, 0, capacity_);
  }

  void Destroy() {
    if (capacity_ == 0) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (dist_[i] != 0) slots_[i].~value_type();
    }
    PageFree(slots_, capacity_bytes());
    slots_ = nullptr;
    dist_ = nullptr;
    capacity_ = 0;
    size_ = 0;
  }

  void Steal(FlatMap* other) {
    slots_ = other->slots_;
    dist_ = other->dist_;
    capacity_ = other->capacity_;
    size_ = other->size_;
    other->slots_ = nullptr;
    other->dist_ = nullptr;
    other->capacity_ = 0;
    other->size_ = 0;
  }

  void CopyFrom(const FlatMap& other) {
    slots_ = nullptr;
    dist_ = nullptr;
    capacity_ = 0;
    size_ = 0;
    if (other.size_ == 0) return;
    reserve(other.size_);
    for (const value_type& v : other) InsertNew(v.first, v.second);
  }

  value_type* slots_ = nullptr;
  uint8_t* dist_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

/// \brief Flat hash set over the same probing scheme (a FlatMap with an
/// empty payload; the std::unordered_set subset the engine uses).
template <typename Key, typename Hash = std::hash<Key>,
          typename KeyEqual = std::equal_to<Key>>
class FlatSet {
  struct Empty {};
  using Map = FlatMap<Key, Empty, Hash, KeyEqual>;

 public:
  /// Iterates keys only (the payload is empty).
  template <bool kConst>
  class Iterator {
    using Inner = typename Map::template Iterator<kConst>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Key;
    using difference_type = std::ptrdiff_t;
    using reference = const Key&;
    using pointer = const Key*;

    Iterator() = default;
    explicit Iterator(Inner it) : it_(it) {}
    const Key& operator*() const { return it_->first; }
    const Key* operator->() const { return &it_->first; }
    Iterator& operator++() {
      ++it_;
      return *this;
    }
    template <bool kOther>
    bool operator==(const Iterator<kOther>& o) const {
      return it_ == o.it_;
    }
    template <bool kOther>
    bool operator!=(const Iterator<kOther>& o) const {
      return it_ != o.it_;
    }

   private:
    template <typename, typename, typename>
    friend class FlatSet;
    Inner it_;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  std::pair<iterator, bool> insert(const Key& key) {
    auto [it, inserted] = map_.try_emplace(key);
    return {iterator(it), inserted};
  }
  std::size_t count(const Key& key) const { return map_.count(key); }
  bool contains(const Key& key) const { return map_.contains(key); }
  std::size_t erase(const Key& key) { return map_.erase(key); }

  iterator begin() { return iterator(map_.begin()); }
  iterator end() { return iterator(map_.end()); }
  const_iterator begin() const { return const_iterator(map_.begin()); }
  const_iterator end() const { return const_iterator(map_.end()); }

  std::size_t capacity_bytes() const { return map_.capacity_bytes(); }

 private:
  Map map_;
};

}  // namespace sgq

#endif  // SGQ_COMMON_FLAT_MAP_H_
