// Deliberately drifted copy of src/host/lookback.hpp's protocol surface —
// the negative test for tools/satmc/conformance.py (ctest
// satmc_conformance_drift feeds it in via --lookback and requires the
// extractor to reject it). Three seeded drifts:
//
//   1. the R lattice swaps GLS and GS (a waiter keyed on kGls would then
//      accept a tile whose diagonal sum is not published yet);
//   2. publish() stores the flag relaxed with no satlint allow — the flag
//      can pass the data it guards;
//   3. a second claim scheme draws chunks of serials off the work counter
//      next to the engine's one-tile claim, so the tiles in flight are no
//      longer the consecutive serials the model checks.
//
// Never compiled; exists only as extractor input, so it keeps exactly the
// declarations the extractor parses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sathost {

namespace hflag {
inline constexpr std::uint8_t kLrs = 1;  ///< LRS(I,J) published
inline constexpr std::uint8_t kGrs = 2;  ///< GRS(I,J) published
inline constexpr std::uint8_t kGls = 4;  ///< DRIFT: swapped with kGs
inline constexpr std::uint8_t kGs = 3;   ///< DRIFT: swapped with kGls
inline constexpr std::uint8_t kLcs = 1;  ///< LCS(I,J) published
inline constexpr std::uint8_t kGcs = 2;  ///< GCS(I,J) published
}  // namespace hflag

class StatusFlags {
 public:
  void publish(std::size_t idx, std::uint8_t state) noexcept {
    // DRIFT: relaxed publish, and no audited-exception allow directive.
    flags_[idx].store(state, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint8_t peek(std::size_t idx) const noexcept {
    return flags_[idx].load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint8_t>* flags_ = nullptr;
};

// DRIFT: per-worker claim ranges, refilled a chunk at a time.
inline std::size_t claim_range(std::atomic<std::size_t>& work_counter,
                               std::size_t chunk) {
  return work_counter.fetch_add(chunk, std::memory_order_relaxed);
}

}  // namespace sathost
