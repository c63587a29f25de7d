// Page-mapped storage for the engine's large arrays, so resident memory
// follows live state.
//
// glibc serves a request of M_MMAP_THRESHOLD (128 KiB by default) or more
// with its own mapping and unmaps it on free, but the first such free
// raises that threshold to the freed size (up to 32 MiB): from then on
// multi-MB arrays come from the brk heap, and freeing them rarely shrinks
// the process, because the heap only returns its top. The engine's large
// arrays — FlatMap slot and probe-distance arrays, expiry-calendar
// buckets — are freed and reallocated as windows slide and tables grow
// and shrink, so the engine applies the default rule itself: a block of
// kPageMapBytes or more is mapped and unmapped here, whatever the
// allocator's threshold has become. Smaller blocks go to operator new.
//
// Under AddressSanitizer every block goes to operator new, so ASan keeps
// bounds-checking the large tables too.

#ifndef SGQ_COMMON_PAGE_ALLOCATOR_H_
#define SGQ_COMMON_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <new>

namespace sgq {

/// \brief Blocks of at least this many bytes get pages of their own
/// (glibc's default M_MMAP_THRESHOLD).
inline constexpr std::size_t kPageMapBytes = 128 * 1024;

/// \brief Returns `bytes` of storage aligned for any fundamental type;
/// throws std::bad_alloc when the system refuses.
void* PageAllocate(std::size_t bytes);

/// \brief Frees a block from PageAllocate; `bytes` must be the size it
/// was allocated with.
void PageFree(void* p, std::size_t bytes);

/// \brief Standard allocator over PageAllocate/PageFree (stateless, so
/// containers using it swap and move like with std::allocator).
template <typename T>
struct PageAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "PageAllocator serves fundamental alignment only");
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // rebinding, as containers do

  T* allocate(std::size_t n) {
    return static_cast<T*>(PageAllocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { PageFree(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PageAllocator<U>&) const {
    return false;
  }
};

}  // namespace sgq

#endif  // SGQ_COMMON_PAGE_ALLOCATOR_H_
