// Shared pieces of the host decoupled look-back protocol (the CPU analog of
// src/sat/aux_arrays.hpp + src/sat/protocol_specs.hpp).
//
// Worker threads stand in for the paper's CUDA blocks: per tile T(I,J) they
// publish LOCAL sums first (LRS/LCS), then resolve the left / top / diagonal
// prefixes by walking predecessors' status flags, upgrading each published
// quantity to GLOBAL (GRS/GCS/GLS/GS). The state machines are the paper's:
//
//   R: 0 → LRS(1) → GRS(2) → GLS(3) → GS(4)      (row band / diagonal walks)
//   C: 0 → LCS(1) → GCS(2)                        (column band walks)
//
// A tile that resolved every prefix before publishing anything may skip the
// intermediate states and publish the terminal flag directly — flags are
// monotone, and a waiter acts only on the snapshot it observed, so skipping
// LOCAL states is indistinguishable from a fast publisher (the simulated-GPU
// checker models the same monotonicity; see docs/protocol_checker.md).
//
// Memory ordering: every value is written *before* its flag is released
// (store-release); every waiter acquires the flag before reading the value.
// This is the host-visible form of the algorithm's flag-after-data rule that
// the protocol checker enforces on the simulator — here the C++ memory model
// enforces it directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/registry.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"

namespace sathost {

// ── Interleaving-explorer hook layer ────────────────────────────────────
//
// tests/test_interleave.cpp drives the engine through every protocol step
// under a deterministic scheduler: each flag observe/publish and each tile
// claim funnels through one global hook, so the test can serialize workers
// and enumerate schedules (see docs/static_analysis.md). Production cost is
// one predicted null test per protocol step — the same pattern as
// SkssLbOptions::tile_hook. The pointer is written only while no worker
// threads are running (before the pool batch is published / after it
// completes), so a plain pointer is race-free.
namespace testhook {

class SchedHook {
 public:
  virtual ~SchedHook() = default;
  /// A worker is about to claim the next tile serial (before the counter
  /// fetch_add, so claim order is schedule-controlled).
  virtual void on_claim() = 0;
  /// A worker just loaded flag `idx` of StatusFlags `arr` and observed
  /// `seen`; `want` is the state it is waiting for (0 for a non-blocking
  /// peek). Called after the load, before the worker acts on the snapshot.
  virtual void on_observe(const void* arr, std::size_t idx,
                          std::uint8_t seen, std::uint8_t want) = 0;
  /// A worker is about to release-store `state` into flag `idx` of `arr`.
  virtual void on_publish(const void* arr, std::size_t idx,
                          std::uint8_t state) = 0;
  /// A worker body finished (it will hit no further scheduling points).
  virtual void on_exit() = 0;
};

inline SchedHook* g_sched_hook = nullptr;  ///< test-only; null in production

}  // namespace testhook

// Host mirrors of the device status encodings (sat/aux_arrays.hpp). Kept as
// distinct constants so src/host/ does not depend on the simulator layers.
namespace hflag {
inline constexpr std::uint8_t kLrs = 1;  ///< LRS(I,J) published
inline constexpr std::uint8_t kGrs = 2;  ///< GRS(I,J) published
inline constexpr std::uint8_t kGls = 3;  ///< GLS(I,J) published
inline constexpr std::uint8_t kGs = 4;   ///< GS(I,J) published
inline constexpr std::uint8_t kLcs = 1;  ///< LCS(I,J) published
inline constexpr std::uint8_t kGcs = 2;  ///< GCS(I,J) published
}  // namespace hflag

/// Metric handles for the look-back hot path, resolved once per run (the
/// registry's name lookup takes a mutex; flag waits must not). All null when
/// observability is off — every publication site is one pointer test.
struct LookbackObs {
  obs::Counter* tiles_retired = nullptr;
  obs::Counter* fastpath_tiles = nullptr;
  obs::Counter* overlap_tiles = nullptr;
  obs::Histogram* depth = nullptr;
  obs::Histogram* flag_wait_us = nullptr;

  void resolve(obs::Registry* reg) {
    if (reg == nullptr) return;
    tiles_retired = &reg->counter("host.lookback.tiles_retired");
    fastpath_tiles = &reg->counter("host.lookback.fastpath_tiles");
    overlap_tiles = &reg->counter("host.lookback.overlap_tiles");
    depth = &reg->histogram("host.lookback.depth");
    flag_wait_us = &reg->histogram("host.lookback.flag_wait_us");
  }
};

/// One status array (R or C) over the tile grid. Flags start at 0 and only
/// ever increase; publish() is a store-release, wait/peek are load-acquire.
class StatusFlags {
 public:
  explicit StatusFlags(std::size_t count)
      : flags_(std::make_unique<std::atomic<std::uint8_t>[]>(count)) {
    for (std::size_t i = 0; i < count; ++i)
      // satlint: allow(flag-store-ordering) -- constructor zero-fill; the
      // array is published to workers by the pool's batch mutex, so a
      // release here would order nothing a waiter could miss.
      flags_[i].store(0, std::memory_order_relaxed);
  }

  /// Releases `state` for tile `idx`. All data the state guards must be
  /// written before this call.
  void publish(std::size_t idx, std::uint8_t state) noexcept {
    // satlint: allow(flag-load-ordering) -- debug self-check of the tile's
    // own monotonicity; only the claiming worker stores this slot, so the
    // relaxed read synchronizes with nothing by design.
    SAT_DCHECK(state > flags_[idx].load(std::memory_order_relaxed));
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_publish(this, idx, state);
    flags_[idx].store(state, std::memory_order_release);
  }

  /// Non-blocking snapshot (acquire): the returned state's data is visible.
  [[nodiscard]] std::uint8_t peek(std::size_t idx) const noexcept {
    const std::uint8_t s = flags_[idx].load(std::memory_order_acquire);
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_observe(this, idx, s, 0);
    return s;
  }

  /// Blocks until tile `idx` reaches at least `want`; returns the observed
  /// state (which may be higher — callers branch on the snapshot, exactly
  /// like the device look-back). Spins briefly, then yields (the publisher
  /// may need this core); a blocking wait records its wall time in
  /// `obs.flag_wait_us`.
  std::uint8_t wait_at_least(std::size_t idx, std::uint8_t want,
                             const LookbackObs& obs) const noexcept {
    std::uint8_t s = flags_[idx].load(std::memory_order_acquire);
    if (testhook::g_sched_hook != nullptr)
      testhook::g_sched_hook->on_observe(this, idx, s, want);
    if (s >= want) return s;
    const auto t0 = std::chrono::steady_clock::now();
    satutil::SpinBackoff backoff;
    do {
      backoff.pause();
      s = flags_[idx].load(std::memory_order_acquire);
      if (testhook::g_sched_hook != nullptr)
        testhook::g_sched_hook->on_observe(this, idx, s, want);
    } while (s < want);
    if (obs.flag_wait_us != nullptr) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      obs.flag_wait_us->record(static_cast<std::uint64_t>(us + 0.5));
    }
    return s;
  }

 private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> flags_;
};

/// The per-tile published quantities of Table II, host layout: one length-W
/// slot per tile for each vector sum (row-major by tile index, like the
/// device SatAux), one scalar slot per tile for GLS/GS. Element storage is
/// default-initialized (not zeroed) — every slot is written before its flag
/// releases it, so zero-filling would only add a cold pass over the arrays.
template <class T>
struct LookbackAux {
  LookbackAux(std::size_t tile_count, std::size_t tile_w)
      : w(tile_w),
        lrs(new T[tile_count * tile_w]),
        grs(new T[tile_count * tile_w]),
        lcs(new T[tile_count * tile_w]),
        gcs(new T[tile_count * tile_w]),
        gls(new T[tile_count]),
        gs(new T[tile_count]),
        r_status(tile_count),
        c_status(tile_count) {}

  /// First element of tile `idx`'s vector slot.
  [[nodiscard]] std::size_t vec_base(std::size_t idx) const {
    return idx * w;
  }

  std::size_t w;
  std::unique_ptr<T[]> lrs;  ///< local row sums (length-P slots)
  std::unique_ptr<T[]> grs;  ///< global row sums
  std::unique_ptr<T[]> lcs;  ///< local column sums (length-Q slots)
  std::unique_ptr<T[]> gcs;  ///< global column sums
  std::unique_ptr<T[]> gls;  ///< L-band sums (scalar per tile)
  std::unique_ptr<T[]> gs;   ///< global sums (scalar per tile)
  StatusFlags r_status;
  StatusFlags c_status;
};

/// Decoupled look-back walk along one axis (Figure 10 on the host): starting
/// from the immediate predecessor, wait for each tile's LOCAL state, add its
/// GLOBAL vector and stop if published, otherwise add its LOCAL vector and
/// keep walking. `pred_idx(k)` maps walk step k = 0.. to a tile index;
/// `steps` bounds the walk (the border terminates it: at the border tile the
/// LOCAL sum *is* the GLOBAL sum). Accumulates into `out[0, len)` and
/// returns the number of predecessors inspected, which it also records in
/// `obs.depth`.
template <class T, class PredIdx>
std::size_t lookback_accumulate(const StatusFlags& status, const T* local,
                                const T* global, std::size_t slot_w,
                                std::size_t steps, std::size_t len, T* out,
                                std::uint8_t local_state,
                                std::uint8_t global_state,
                                const LookbackObs& obs, PredIdx pred_idx) {
  std::size_t depth = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t pred = pred_idx(k);
    const std::uint8_t s = status.wait_at_least(pred, local_state, obs);
    ++depth;
    const T* vec = (s >= global_state ? global : local) + pred * slot_w;
    for (std::size_t i = 0; i < len; ++i) out[i] += vec[i];
    if (s >= global_state) break;
  }
  if (obs.depth != nullptr) obs.depth->record(depth);
  return depth;
}

}  // namespace sathost
