// 32-byte aligned allocation for the buffers the kernel primitives stream.
// Feature matrices, tree-builder histograms and the FitSession scratch
// blocks allocate through AlignedAllocator, so each buffer starts on a
// 32-byte boundary whatever the heap's default placement: a histogram bin
// (kernel::kHistBinStride doubles) never straddles a 64-byte cache line, and
// a buffer's cache-line layout does not move between runs. Alignment is a
// performance property only: every kernel primitive accepts any pointer.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace nurd {

/// Alignment (bytes) of AlignedAllocator storage: four doubles, one
/// histogram bin.
inline constexpr std::size_t kSimdAlign = 32;

/// Minimal std::allocator replacement with 32-byte aligned storage.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kSimdAlign}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlign});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector with 32-byte aligned storage; data() is kSimdAlign-aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace nurd
