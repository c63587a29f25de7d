// Small-size-inlined vector with full value semantics, for the tiny
// fixed-arity arrays PATTERN state is made of: variable bindings
// (num_vars values) and join keys (1-3 values). Unlike SmallRun
// (common/arena.h) it owns its overflow on the global heap and is
// copyable/comparable, so it can live inside container values that are
// copied and compared — at the cost of a heap allocation in the (rare)
// overflow case.

#ifndef SGQ_COMMON_SMALL_VEC_H_
#define SGQ_COMMON_SMALL_VEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>

#include "common/hash.h"

namespace sgq {

template <typename T, unsigned N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVec elements are moved with memcpy");

 public:
  SmallVec() : size_(0), cap_(N) {}
  SmallVec(std::size_t n, const T& value) : SmallVec() { assign(n, value); }

  SmallVec(const SmallVec& o) : SmallVec() { CopyFrom(o); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      size_ = 0;
      CopyFrom(o);
    }
    return *this;
  }
  SmallVec(SmallVec&& o) noexcept : SmallVec() { MoveFrom(&o); }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) MoveFrom(&o);
    return *this;
  }

  ~SmallVec() {
    if (cap_ != N) delete[] heap_;
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

  void clear() {
    size_ = 0;
    ShrinkInline();
  }

  void assign(std::size_t n, const T& value) {
    size_ = 0;
    Reserve(n);
    T* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = value;
    size_ = static_cast<uint32_t>(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) Reserve(cap_ * 2);
    data()[size_++] = v;
  }

  /// \brief Inserts `v` before index `i`, shifting the tail right.
  void insert_at(std::size_t i, const T& v) {
    if (size_ == cap_) Reserve(cap_ * 2);
    T* d = data();
    std::memmove(d + i + 1, d + i, (size_ - i) * sizeof(T));
    d[i] = v;
    ++size_;
  }

  /// \brief Removes the elements in [i, j), shifting the tail left. A
  /// heap block is freed once the rest fits inline again.
  void erase_range(std::size_t i, std::size_t j) {
    // size_ <= N in inline mode; the min makes the bound provable.
    const std::size_t end = cap_ == N ? std::min<std::size_t>(size_, N) : size_;
    T* d = data();
    if (j < end) std::memmove(d + i, d + j, (end - j) * sizeof(T));
    size_ -= static_cast<uint32_t>(j - i);
    ShrinkInline();
  }

  void reserve(std::size_t n) { Reserve(n); }

  bool operator==(const SmallVec& o) const {
    if (size_ != o.size_) return false;
    return std::memcmp(data(), o.data(), size_ * sizeof(T)) == 0;
  }
  bool operator!=(const SmallVec& o) const { return !(*this == o); }

  /// \brief Bytes held beyond the inline storage.
  std::size_t overflow_bytes() const {
    return cap_ == N ? 0 : cap_ * sizeof(T);
  }

 private:
  void Reserve(std::size_t n) {
    if (n <= cap_) return;
    uint32_t new_cap = cap_;
    while (new_cap < n) new_cap *= 2;
    T* block = new T[new_cap];
    std::memcpy(block, data(), size_ * sizeof(T));
    if (cap_ != N) delete[] heap_;
    heap_ = block;
    cap_ = new_cap;
  }

  /// Moves the elements back inline and frees the heap block when they
  /// fit: a value that grew once does not keep its block for life.
  void ShrinkInline() {
    if (cap_ == N || size_ > N) return;
    T* block = heap_;
    // size_ <= N here; the min makes the bound provable.
    std::memcpy(inline_, block, std::min<std::size_t>(size_, N) * sizeof(T));
    delete[] block;
    cap_ = N;
  }

  void CopyFrom(const SmallVec& o) {
    Reserve(o.size_);
    std::memcpy(data(), o.data(), o.size_ * sizeof(T));
    size_ = o.size_;
  }

  void MoveFrom(SmallVec* o) {
    if (cap_ != N) {
      delete[] heap_;
      cap_ = N;
    }
    if (o->cap_ == N) {
      // size_ <= N in inline mode; the min makes the bound provable.
      std::memcpy(inline_, o->inline_,
                  std::min<std::size_t>(o->size_, N) * sizeof(T));
    } else {
      heap_ = o->heap_;
      cap_ = o->cap_;
      o->cap_ = N;
    }
    size_ = o->size_;
    o->size_ = 0;
  }

  uint32_t size_;
  uint32_t cap_;  ///< == N: inline storage active; > N: heap_ active
  union {
    T inline_[N];
    T* heap_;
  };
};

/// \brief Hash for SmallVec join keys: the size, then each element's
/// std::hash, combined in order.
struct SmallVecHash {
  template <typename T, unsigned N>
  std::size_t operator()(const SmallVec<T, N>& v) const {
    std::size_t seed = v.size();
    for (const T& x : v) HashCombine(&seed, std::hash<T>{}(x));
    return seed;
  }
};

}  // namespace sgq

#endif  // SGQ_COMMON_SMALL_VEC_H_
