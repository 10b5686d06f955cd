// Owned arrays for the library's large buffers (tiled-store planes and base
// bands, the tiled producer's kept staging tile).
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
// Why recycling: glibc maps every block above its mmap threshold (at most
// 32 MiB) afresh and unmaps it on free, so each compute_sat_tiled on an 8K
// frame still faulted in and zeroed 64 huge pages of u32 plane that the
// encoder then overwrote. Freeing a block from kHugePageBytes up therefore
// parks it instead of deleting it:
//   - on Linux it is advised MADV_FREE, so the kernel may reclaim its pages
//     under memory pressure; until they are reused or reclaimed, parked
//     pages still count in the process's RSS;
//   - under AddressSanitizer it is poisoned, so a use after free still
//     reports;
//   - it joins one process-wide, mutex-guarded list of at most
//     kMaxParkedBlocks blocks; parking into a full list releases the
//     oldest block.
// A huge request takes the most recently parked block of exactly its
// rounded size, so a shape that repeats faults only on its first use. Any
// other request allocates fresh. Recycled contents are as unspecified as
// fresh ones.
//
// Smaller buffers get 64-byte (cache-line) alignment, the contract the
// tiled store's non-temporal stores rely on. They are never parked.
// Contents are left uninitialized, so untouched pages stay virtual.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SATUTIL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SATUTIL_ASAN 1
#endif
#endif
#if defined(SATUTIL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace satutil {

/// The transparent-huge-page size on x86-64 and most arm64 kernels.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// How many freed huge blocks stay parked for reuse: all that one tiled
/// store (two base bands and up to three planes) or one
/// TiledMomentTables (two stores of up to four) frees.
inline constexpr std::size_t kMaxParkedBlocks = 8;

namespace detail {

/// The parked huge blocks, oldest first (see the header comment).
class ParkedBlocks {
 public:
  /// Never destroyed: pool threads free their thread_local kept tiles
  /// into it at thread exit, which may follow static destruction.
  static ParkedBlocks& instance() {
    static ParkedBlocks* const list = new ParkedBlocks;
    return *list;
  }

  /// Removes and returns the most recently parked block of exactly
  /// `bytes`, or nullptr.
  void* take(std::size_t bytes) {
    void* p = nullptr;
    {
      const std::lock_guard lock(mu_);
      for (std::size_t k = count_; k-- > 0;)
        if (blocks_[k].bytes == bytes) {
          p = blocks_[k].p;
          erase(k);
          break;
        }
    }
#if defined(SATUTIL_ASAN)
    if (p != nullptr) ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
    return p;
  }

  /// Parks a 2 MiB-aligned block of `bytes`; releases the oldest block
  /// when the list is full.
  void park(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_FREE)
    // Advice only: EINVAL (a kernel before 4.5) keeps the pages resident.
    (void)::madvise(p, bytes, MADV_FREE);
#endif
#if defined(SATUTIL_ASAN)
    ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
    Block oldest;
    {
      const std::lock_guard lock(mu_);
      if (count_ == blocks_.size()) {
        oldest = blocks_[0];
        erase(0);
      }
      blocks_[count_++] = Block{p, bytes};
    }
    if (oldest.p != nullptr) release(oldest.p, oldest.bytes);
  }

 private:
  struct Block {
    void* p = nullptr;
    std::size_t bytes = 0;
  };

  ParkedBlocks() = default;

  static void release(void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(SATUTIL_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
    ::operator delete(p, std::align_val_t{kHugePageBytes});
  }

  /// Drops entry k, keeping the rest oldest first. Caller holds mu_.
  void erase(std::size_t k) {
    std::copy(blocks_.data() + k + 1, blocks_.data() + count_,
              blocks_.data() + k);
    --count_;
  }

  std::mutex mu_;
  std::array<Block, kMaxParkedBlocks> blocks_{};  // guarded by mu_
  std::size_t count_ = 0;                         // guarded by mu_
};

}  // namespace detail

/// Frees with the alignment the array was allocated with; a huge block
/// (align == kHugePageBytes) is parked for reuse instead.
template <class U>
struct LargeFree {
  std::size_t align = 64;
  std::size_t bytes = 0;  ///< the block's rounded size
  void operator()(U* p) const noexcept {
    if (align == kHugePageBytes)
      detail::ParkedBlocks::instance().park(p, bytes);
    else
      ::operator delete(static_cast<void*>(p), std::align_val_t{align});
  }
};

template <class U>
using LargeArray = std::unique_ptr<U[], LargeFree<U>>;

/// `n` uninitialized elements; empty for n = 0. See the header comment for
/// the alignment, huge-page and recycling rules.
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
  void* p = align == kHugePageBytes
                ? detail::ParkedBlocks::instance().take(bytes)
                : nullptr;
  if (p == nullptr) {
    p = ::operator new(bytes, std::align_val_t{align});
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // Advice only: EINVAL (THP compiled out) leaves 4 KiB pages.
    if (align == kHugePageBytes) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  }
  return LargeArray<U>(static_cast<U*>(p), LargeFree<U>{align, bytes});
}

}  // namespace satutil
