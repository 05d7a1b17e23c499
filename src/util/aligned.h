// Cache-line-aligned allocation for the raw series buffers: with a
// line-aligned buffer and a series length that is a multiple of 16 floats,
// every 16-value block the distance kernels load is one whole 64-byte line.
#ifndef HYDRA_UTIL_ALIGNED_H_
#define HYDRA_UTIL_ALIGNED_H_

#include <cstddef>
#include <memory>
#include <new>

namespace hydra::util {

/// The cache-line size the series buffers are aligned to.
inline constexpr size_t kCacheLineBytes = 64;

/// Standard allocator returning kCacheLineBytes-aligned storage (for
/// std::vector).
template <typename T>
struct LineAlignedAllocator {
  using value_type = T;

  LineAlignedAllocator() = default;
  template <typename U>
  LineAlignedAllocator(const LineAlignedAllocator<U>& /*other*/) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const LineAlignedAllocator<U>& /*other*/) const {
    return true;
  }
};

/// Deleter for a LineAlignedArray.
struct LineAlignedDelete {
  template <typename T>
  void operator()(T* p) const {
    ::operator delete[](p, std::align_val_t{kCacheLineBytes});
  }
};

/// An uninitialized array of trivial T on a cache-line boundary.
template <typename T>
using LineAlignedArray = std::unique_ptr<T[], LineAlignedDelete>;

template <typename T>
LineAlignedArray<T> MakeLineAlignedArray(size_t n) {
  return LineAlignedArray<T>(static_cast<T*>(
      ::operator new[](n * sizeof(T), std::align_val_t{kCacheLineBytes})));
}

}  // namespace hydra::util

#endif  // HYDRA_UTIL_ALIGNED_H_
