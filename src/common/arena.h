// Slab arena, size-class freelist pool, and small-size-inlined runs for
// operator state payloads.
//
// Node-based containers pay one heap allocation (and one cache line of
// allocator metadata) per element; the hot operator state of this engine
// is dominated by *many tiny arrays* — the StoredEdge runs of the window
// adjacency and the root lists of the PATH inverted index. The layer here
// removes those allocations:
//
//  - Arena: bump allocator over fixed-size slabs; allocation is a pointer
//    increment, deallocation is wholesale (the owning store dies or is
//    cleared). Oversized requests get a dedicated slab.
//  - SlabPool: power-of-two size-class freelists on top of an Arena.
//    Freed blocks are recycled per class, so steady-state windowed
//    workloads (insert edges / expire edges forever) reach a fixed
//    footprint instead of growing the arena monotonically.
//  - SmallRun<T, N>: a dynamic array of trivially-copyable elements with N
//    slots stored inline; overflow storage comes from a SlabPool passed to
//    the mutating calls (the owner of the map that holds the runs owns the
//    pool — see DESIGN.md "State layout" for the ownership rules). The
//    destructor is a no-op by design: unreleased overflow is reclaimed
//    when the owning pool's arena dies; containers that erase runs
//    mid-life call Release() to put the block back on the freelist.
//  - PoolVec<T, N>: the same inline-then-overflow shape for non-trivial
//    but memcpy-relocatable elements (PATTERN join buckets). Its overflow
//    is one exact-size block on the global heap that the run owns and
//    frees itself — no pool, no size-class rounding, nothing retained
//    once the run is released or dies.

#ifndef SGQ_COMMON_ARENA_H_
#define SGQ_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sgq {

/// \brief Bump allocator over fixed-size slabs.
class Arena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = 1 << 16;
  /// All blocks are aligned to this (covers every state payload type).
  static constexpr std::size_t kAlign = 16;

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& o) noexcept { MoveFrom(&o); }
  Arena& operator=(Arena&& o) noexcept {
    if (this != &o) MoveFrom(&o);
    return *this;
  }

  /// \brief Returns `bytes` of kAlign-aligned storage. Never fails short
  /// of std::bad_alloc; storage lives until Clear() or destruction.
  void* Allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (bytes > slab_bytes_) {
      // Dedicated slab, inserted behind the bump slab so the latter keeps
      // filling.
      slabs_.push_back(NewSlab(bytes));
      reserved_bytes_ += bytes;
      used_bytes_ += bytes;
      char* p = slabs_.back().get();
      if (slabs_.size() >= 2) {
        std::swap(slabs_[slabs_.size() - 1], slabs_[slabs_.size() - 2]);
      }
      return p;
    }
    if (offset_ + bytes > current_slab_bytes_) {
      slabs_.push_back(NewSlab(slab_bytes_));
      reserved_bytes_ += slab_bytes_;
      current_slab_bytes_ = slab_bytes_;
      offset_ = 0;
    }
    char* p = slabs_.back().get() + offset_;
    offset_ += bytes;
    used_bytes_ += bytes;
    return p;
  }

  /// \brief Frees every slab. All blocks handed out become invalid.
  void Clear() {
    slabs_.clear();
    offset_ = 0;
    current_slab_bytes_ = 0;
    reserved_bytes_ = 0;
    used_bytes_ = 0;
  }

  std::size_t reserved_bytes() const { return reserved_bytes_; }
  std::size_t used_bytes() const { return used_bytes_; }

 private:
  void MoveFrom(Arena* o) {
    slab_bytes_ = o->slab_bytes_;
    slabs_ = std::move(o->slabs_);
    offset_ = o->offset_;
    current_slab_bytes_ = o->current_slab_bytes_;
    reserved_bytes_ = o->reserved_bytes_;
    used_bytes_ = o->used_bytes_;
    o->offset_ = 0;
    o->current_slab_bytes_ = 0;
    o->reserved_bytes_ = 0;
    o->used_bytes_ = 0;
  }

  using Slab = std::unique_ptr<char[]>;
  static Slab NewSlab(std::size_t bytes) {
    // char[] from new[] is sufficiently aligned for kAlign on every
    // platform we build on (glibc malloc returns 16-byte alignment);
    // static_assert keeps us honest.
    static_assert(kAlign <= alignof(std::max_align_t),
                  "arena alignment exceeds allocator guarantee");
    return Slab(new char[bytes]);
  }

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::size_t offset_ = 0;
  std::size_t current_slab_bytes_ = 0;  ///< capacity of slabs_.back()
  std::size_t reserved_bytes_ = 0;
  std::size_t used_bytes_ = 0;
};

/// \brief Power-of-two size-class freelists over an Arena. Blocks are at
/// least 16 bytes (a freed block stores the next-pointer in place).
class SlabPool {
 public:
  SlabPool() = default;
  explicit SlabPool(std::size_t slab_bytes) : arena_(slab_bytes) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  SlabPool(SlabPool&& o) noexcept : arena_(std::move(o.arena_)) {
    for (unsigned c = 0; c < kNumClasses; ++c) {
      lists_[c] = o.lists_[c];
      o.lists_[c] = nullptr;
    }
  }
  SlabPool& operator=(SlabPool&& o) noexcept {
    if (this != &o) {
      arena_ = std::move(o.arena_);
      for (unsigned c = 0; c < kNumClasses; ++c) {
        lists_[c] = o.lists_[c];
        o.lists_[c] = nullptr;
      }
    }
    return *this;
  }

  /// \brief Allocates a block of at least `bytes` (rounded to the next
  /// power-of-two class, minimum 16).
  void* Alloc(std::size_t bytes) {
    const unsigned cls = ClassOf(bytes);
    void*& head = lists_[cls];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      return p;
    }
    return arena_.Allocate(std::size_t{1} << (cls + kMinShift));
  }

  /// \brief Returns a block obtained from Alloc(bytes) to its class list.
  void Free(void* p, std::size_t bytes) {
    const unsigned cls = ClassOf(bytes);
    *static_cast<void**>(p) = lists_[cls];
    lists_[cls] = p;
  }

  /// \brief Frees everything (freelists included).
  void Clear() {
    arena_.Clear();
    for (void*& head : lists_) head = nullptr;
  }

  std::size_t reserved_bytes() const { return arena_.reserved_bytes(); }

 private:
  static constexpr unsigned kMinShift = 4;  // smallest class: 16 bytes
  static constexpr unsigned kNumClasses = 44;

  static unsigned ClassOf(std::size_t bytes) {
    unsigned cls = 0;
    std::size_t cap = std::size_t{1} << kMinShift;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }

  Arena arena_;
  void* lists_[kNumClasses] = {};
};

/// \brief Dynamic array with N elements inline and pool-backed overflow.
///
/// T must be trivially copyable and destructible (the runs are raw byte
/// payloads: StoredEdge, VertexId). Mutating operations that may grow take
/// the owning SlabPool. The destructor does not free overflow — the pool's
/// arena owns it; call Release(pool) when erasing a run whose block should
/// be recycled. Moving transfers the block and empties the source.
template <typename T, unsigned N>
class SmallRun {
  // memcpy relocation needs trivial copy *construction* and destruction.
  // (Full is_trivially_copyable is deliberately not required: std::pair
  // of trivial members fails it only because of its user-provided
  // assignment operator, while its object representation is still safe
  // to relocate byte-wise.)
  static_assert(std::is_trivially_copy_constructible_v<T>,
                "SmallRun elements are moved with memcpy");
  static_assert(std::is_trivially_destructible_v<T>,
                "SmallRun never runs element destructors");
  static_assert(N >= 1, "inline capacity must be positive");

 public:
  SmallRun() : size_(0), cap_(N) {}

  SmallRun(const SmallRun&) = delete;
  SmallRun& operator=(const SmallRun&) = delete;

  SmallRun(SmallRun&& o) noexcept { MoveFrom(&o); }
  SmallRun& operator=(SmallRun&& o) noexcept {
    if (this != &o) MoveFrom(&o);
    return *this;
  }

  T* data() { return cap_ == N ? inline_ : heap_; }
  const T* data() const { return cap_ == N ? inline_ : heap_; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(SlabPool* pool, const T& v) {
    if (size_ == cap_) Grow(pool);
    data()[size_++] = v;
  }

  /// \brief Removes the element at index `i`, preserving order.
  void erase_at(std::size_t i) {
    T* d = data();
    std::memmove(d + i, d + i + 1, (size_ - i - 1) * sizeof(T));
    --size_;
  }

  /// \brief Removes the element at index `i` by swapping the last in
  /// (order not preserved).
  void swap_pop(std::size_t i) {
    T* d = data();
    d[i] = d[size_ - 1];
    --size_;
  }

  void pop_back() { --size_; }
  void clear() { size_ = 0; }

  /// \brief Returns overflow storage to the pool and resets to inline.
  void Release(SlabPool* pool) {
    if (cap_ != N) {
      pool->Free(heap_, cap_ * sizeof(T));
      cap_ = N;
    }
    size_ = 0;
  }

  /// \brief Bytes of pool overflow held (0 while inline).
  std::size_t overflow_bytes() const {
    return cap_ == N ? 0 : cap_ * sizeof(T);
  }

 private:
  void Grow(SlabPool* pool) {
    const uint32_t new_cap = cap_ * 2;
    T* block = static_cast<T*>(pool->Alloc(new_cap * sizeof(T)));
    std::memcpy(static_cast<void*>(block), static_cast<const void*>(data()),
                size_ * sizeof(T));
    if (cap_ != N) pool->Free(heap_, cap_ * sizeof(T));
    heap_ = block;
    cap_ = new_cap;
  }

  void MoveFrom(SmallRun* o) {
    size_ = o->size_;
    cap_ = o->cap_;
    if (cap_ == N) {
      // size_ <= N in inline mode; the min makes the bound provable.
      std::memcpy(static_cast<void*>(inline_),
                  static_cast<const void*>(o->inline_),
                  std::min<std::size_t>(size_, N) * sizeof(T));
    } else {
      heap_ = o->heap_;
    }
    o->size_ = 0;
    o->cap_ = N;
  }

  uint32_t size_;
  uint32_t cap_;  ///< == N: inline storage active; > N: heap_ active
  union {
    T inline_[N];
    T* heap_;
  };
};

/// \brief Dynamic array with N elements inline and heap overflow, for
/// *non-trivial* payloads that are still memcpy-relocatable.
///
/// SmallRun covers raw byte payloads; the PATTERN join-table buckets hold
/// Bindings (a SmallVec plus an interval), whose user-provided copy and
/// destructor disqualify them from SmallRun's triviality requirements even
/// though their object representation is safe to relocate byte-wise (no
/// interior or self pointers — SmallVec's overflow pointer points into the
/// global heap, never at itself). PoolVec relocates with memcpy like
/// SmallRun but runs element *destructors* exactly once, at removal
/// (truncate / Release / PoolVec destruction), so payloads owning heap
/// memory do not leak. Overflow is one block of exactly cap × sizeof(T)
/// bytes from the global heap, owned by the run: it is freed when the run
/// grows into a larger block, on Release(), when a run is move-assigned
/// over it, and on destruction.
template <typename T, unsigned N>
class PoolVec {
  static_assert(std::is_nothrow_move_constructible_v<T> &&
                    std::is_nothrow_move_assignable_v<T>,
                "PoolVec compaction moves elements");
  static_assert(N >= 1, "inline capacity must be positive");

 public:
  PoolVec() : size_(0), cap_(N) {}

  PoolVec(const PoolVec&) = delete;
  PoolVec& operator=(const PoolVec&) = delete;

  PoolVec(PoolVec&& o) noexcept { MoveFrom(&o); }
  PoolVec& operator=(PoolVec&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(&o);
    }
    return *this;
  }

  ~PoolVec() { Release(); }

  T* data() { return cap_ == N ? reinterpret_cast<T*>(inline_) : heap_; }
  const T* data() const {
    return cap_ == N ? reinterpret_cast<const T*>(inline_) : heap_;
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(T v) {
    if (size_ == cap_) Grow();
    new (data() + size_) T(std::move(v));
    ++size_;
  }

  /// \brief Destroys the elements at [n, size) and shrinks to n.
  void truncate(std::size_t n) {
    T* d = data();
    for (std::size_t i = n; i < size_; ++i) d[i].~T();
    size_ = static_cast<uint32_t>(n);
  }

  /// \brief Destroys every element, frees the overflow block and resets
  /// to inline.
  void Release() {
    truncate(0);
    if (cap_ != N) {
      std::allocator<T>().deallocate(heap_, cap_);
      cap_ = N;
    }
  }

  /// \brief Bytes of heap overflow held (0 while inline).
  std::size_t overflow_bytes() const {
    return cap_ == N ? 0 : cap_ * sizeof(T);
  }

 private:
  void Grow() {
    const uint32_t new_cap = cap_ * 2;
    T* block = std::allocator<T>().allocate(new_cap);
    // Byte-wise relocation: the old objects are *moved*, not destroyed —
    // their lifetime continues in the new block (see class comment).
    std::memcpy(static_cast<void*>(block), static_cast<const void*>(data()),
                size_ * sizeof(T));
    if (cap_ != N) std::allocator<T>().deallocate(heap_, cap_);
    heap_ = block;
    cap_ = new_cap;
  }

  void MoveFrom(PoolVec* o) {
    size_ = o->size_;
    cap_ = o->cap_;
    if (cap_ == N) {
      std::memcpy(static_cast<void*>(inline_),
                  static_cast<const void*>(o->inline_),
                  std::min<std::size_t>(size_, N) * sizeof(T));
    } else {
      heap_ = o->heap_;
    }
    o->size_ = 0;
    o->cap_ = N;
  }

  uint32_t size_;
  uint32_t cap_;  ///< == N: inline storage active; > N: heap_ active
  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* heap_;
  };
};

}  // namespace sgq

#endif  // SGQ_COMMON_ARENA_H_
