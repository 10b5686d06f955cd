// Owned arrays for the library's large buffers (tiled-store planes and base
// bands, the look-back engine's kept staging tile).
//
// Why huge pages: a 4 KiB page costs one fault on first touch and one TLB
// entry while in use. An 8K-frame tiled store is ~127 MiB, so a fresh store
// faulted ~33,000 times per compute_sat_tiled call (about half of the
// call's wall time), and its random region_sum corners missed the TLB on
// nearly every lookup. From kHugePageBytes up, large_array therefore returns
// 2 MiB-aligned memory, rounded up to whole 2 MiB pages and advised
// MADV_HUGEPAGE on Linux, so the kernel backs it 2 MiB at a time wherever
// transparent huge pages are enabled ("always" or "madvise"). The advice
// covers exactly the allocated range. With THP off, or off Linux, the
// memory is plain aligned `new`: results are unchanged, only speed differs.
//
// Smaller buffers get 64-byte (cache-line) alignment, the contract the
// tiled store's non-temporal stores rely on. Contents are left
// uninitialized, so untouched pages stay virtual.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace satutil {

/// The transparent-huge-page size on x86-64 and most arm64 kernels.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Frees with the alignment the array was allocated with.
template <class U>
struct LargeFree {
  std::size_t align = 64;
  void operator()(U* p) const noexcept {
    ::operator delete(static_cast<void*>(p), std::align_val_t{align});
  }
};

template <class U>
using LargeArray = std::unique_ptr<U[], LargeFree<U>>;

/// `n` uninitialized elements; empty for n = 0. See the header comment for
/// the alignment and huge-page rules.
template <class U>
[[nodiscard]] LargeArray<U> large_array(std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<U> &&
                    std::is_trivially_destructible_v<U>,
                "large_array hands out raw storage");
  if (n == 0) return {};
  constexpr std::size_t kMaxElems =
      (std::numeric_limits<std::size_t>::max() - kHugePageBytes) / sizeof(U);
  if (n > kMaxElems) throw std::bad_array_new_length();
  std::size_t bytes = n * sizeof(U);
  const std::size_t align = bytes >= kHugePageBytes ? kHugePageBytes : 64;
  bytes = (bytes + align - 1) / align * align;
  void* p = ::operator new(bytes, std::align_val_t{align});
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Advice only: EINVAL (THP compiled out) leaves 4 KiB pages.
  if (align == kHugePageBytes) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  return LargeArray<U>(static_cast<U*>(p), LargeFree<U>{align});
}

}  // namespace satutil
