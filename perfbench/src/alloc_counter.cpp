#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}
}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Replaceable global allocation functions. GCC 12 can pair an inlined
// caller's delete with the malloc inside these and warn about a mismatch
// that cannot exist; the replacement deletes free with std::free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  perfbench::count();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count();
  if (void* p = perfbench::aligned(size, align)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
