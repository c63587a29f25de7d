#include "common/page_allocator.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

// Page mapping is compiled out under AddressSanitizer (gcc defines
// __SANITIZE_ADDRESS__, clang answers __has_feature) and on systems
// without mmap: there every block goes to operator new.
#if defined(__SANITIZE_ADDRESS__)
#define SGQ_PAGE_MAP 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SGQ_PAGE_MAP 0
#endif
#endif
#if !defined(SGQ_PAGE_MAP)
#if defined(MAP_ANONYMOUS)
#define SGQ_PAGE_MAP 1
#else
#define SGQ_PAGE_MAP 0
#endif
#endif

namespace sgq {

void* PageAllocate(std::size_t bytes) {
#if SGQ_PAGE_MAP
  if (bytes >= kPageMapBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  return ::operator new(bytes);
}

void PageFree(void* p, std::size_t bytes) {
  if (p == nullptr) return;
#if SGQ_PAGE_MAP
  if (bytes >= kPageMapBytes) {
    ::munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p, bytes);
}

}  // namespace sgq
