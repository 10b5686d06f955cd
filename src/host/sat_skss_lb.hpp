// Host 1R1W-SKSS-LB: the paper's single-kernel decoupled-look-back SAT (§IV)
// on CPU worker threads.
//
// Why this engine exists: SAT is memory-bound, so every extra sweep over the
// matrix is pure wasted DRAM traffic. A two-pass split materializes a full
// intermediate pass (2R2W-shaped traffic), and a barrier per anti-diagonal
// stalls every worker on the slowest tile. This engine is the paper's
// answer ported to the host: worker threads act as CUDA blocks,
// self-assigning tiles in diagonal-major serial order
//   σ(I,J) = (I+J)(I+J+1)/2 + I                        (Figure 9),
// computing each tile's SAT with the fused SIMD kernels in one read and one
// write over the matrix, and resolving the left / top / diagonal prefixes by
// walking per-tile status flags (LOCAL → GLOBAL publication, lookback.hpp)
// instead of a barrier between passes.
//
// Scheduling: the paper's self-assignment, verbatim. Every worker claims
// its next tile with one relaxed fetch_add(1) on a shared work counter, so
// the tiles in flight at any moment are consecutive serials. A tile's left,
// top and diagonal predecessors sit a whole anti-diagonal or more behind
// it, so once a diagonal is longer than the worker count they are usually
// published by the time it is claimed — which keeps the fast path below hot.
//
// Deadlock-freedom with a finite thread pool: every look-back dependency of
// T(I,J) points to a tile with a strictly smaller serial, and serials are
// claimed in increasing order, so a dependency is always claimed before its
// dependent. Workers never block on anything *pool*-related while holding a
// tile (run_persistent keeps them off the pool mutex); a flag wait can only
// point at a tile some running worker has already claimed, and the claimant
// of the smallest unfinished serial never waits at all — its dependencies
// are all finished. Induction gives progress for any worker count ≥ 1,
// including oversubscribed and single-core machines (waiters yield the
// timeslice; see util/backoff.hpp).
//
// Batch pipelining: sat_skss_lb_batch runs B same-shaped images through one
// serial space of B·tiles serials. Tiles of different images share no data,
// so no new synchronization is needed — workers simply start claiming image
// k+1's tiles while the tail of image k drains, gated only by the existing
// per-tile flags *within* each image. Dependencies still point at strictly
// smaller global serials (same image, smaller local serial), so the
// deadlock argument is untouched.
//
// Two per-tile paths, identical results:
//   - fast path: all predecessors already GLOBAL when the tile is claimed
//     (always true for 1 worker, the common case under mild contention).
//     The tile is computed *directly* into dst in one fused sweep seeded
//     with the predecessors' prefixes; GRS falls out as the row carries,
//     GCS by differencing the (cache-hot) bottom output row, GS is the
//     bottom-right output. The terminal flags are published in one shot.
//   - look-back path (the paper's steps): compute the tile's LOCAL SAT into
//     a cache-resident buffer (1), publish LRS/LCS (2.A.1/2.B.1), walk left
//     for GRS (2.A.2–3), up for GCS (2.B.2–3), publish GLS (3.1), walk the
//     diagonal for GS (3.2–3.3), then add the three prefixes during the
//     single store to dst (4). dst is still written exactly once.
//
// Two outputs, one protocol body (detail::skss_lb_engine):
//   - dense (sat_skss_lb[_batch]): a Span2d<T> per image; the look-back
//     sums are published in T.
//   - tiled base+residual (sat_skss_lb_residual[_batch], the only producer
//     of Storage::kTiledResidual, sat/storage.hpp): a TiledSat<T> per
//     image; the look-back sums are published in TiledSat<T>::Wide, so the
//     bases stay exact past T's range. Step 4 becomes the tile encode: the
//     look-back path's band prefix IS RowBand and its offset row IS
//     ColBand. The residual width is chosen per tile from the tile's value
//     range, tracked during staging while each row is L1-hot. There is no
//     fast path: the encoder must see the whole tile before choosing a
//     width, so every tile stages through the arena's local SAT buffer;
//     what the output saves is the write traffic (u16 residuals stream 2–4×
//     fewer bytes than the dense table). With a registry it publishes
//     host.storage.{residual_bytes,dense_bytes,overflow_tiles}.
// The claim counter, flag semantics and the deadlock argument above are
// shared; the outputs differ only in the fast path (dense only), the range
// tracking (tiled only) and step 4.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "host/lookback.hpp"
#include "host/sat_simd.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/storage.hpp"
#include "sat/tiles.hpp"
#include "util/large_alloc.hpp"
#include "util/span2d.hpp"

namespace sathost {

struct SkssLbOptions {
  /// Tile width W (tiles are W×W, clipped at the matrix edges). Any
  /// positive value is accepted — the host has no warp-multiple constraint.
  /// 0 picks W with auto_tile_w<T> (below), giving each image of a batch
  /// its share of the workers.
  std::size_t tile_w = 0;
  /// Worker threads acting as blocks; 0 = every thread of the pool. May
  /// exceed the pool size (extra workers queue; see ThreadPool::
  /// run_persistent) — correctness never depends on the count.
  std::size_t workers = 0;
  /// Optional observability (not owned): host.lookback.{depth,flag_wait_us,
  /// tiles_retired,fastpath_tiles,overlap_tiles,tile_w} metrics and one
  /// trace span per tile.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Test hook, called right after a worker claims each tile serial (used
  /// by the flag-protocol stress test to inject randomized stalls). In a
  /// batch run the serial is global: image = serial / tiles_per_image.
  /// Leave empty in production.
  std::function<void(std::size_t serial)> tile_hook;
};

namespace detail {
/// Bytes per OS page: the width of a page-wide tile row, and the alignment
/// of the first-touch arenas below.
inline constexpr std::size_t kPageBytes = 4096;
}  // namespace detail

/// L2 budget for one W² slow-path staging tile (auto_tile_w's L2 cap).
inline constexpr std::size_t kL2StagingBytes = std::size_t{1} << 20;

/// Tile width whose rows span exactly one page: W·sizeof(T) = kPageBytes,
/// i.e. 1024 for a 4-byte T and 512 for an 8-byte T.
template <class T>
constexpr std::size_t page_tile_w() {
  return detail::kPageBytes / sizeof(T);
}

/// The tile width SkssLbOptions::tile_w = 0 picks for a rows×cols image of
/// T on `workers` workers: about one tile column per worker,
/// W = max(128, ceil(maxdim / workers)), then capped.
///
///   - L1 cap, always: one W-element accumulator row must stay L1-resident
///     (16 KiB ⇒ W ≤ 4096 for a 4-byte T). The fast path carries the column
///     prefix through it on every sweep; past ~16 KiB it thrashed (30%
///     slower at 8192² f32 with a 32 KiB row than with two 4096-wide tile
///     columns). One worker gets only this cap: it has no wavefront to
///     fill, every dense tile takes the fast path, and bigger tiles keep
///     its sweep on long contiguous runs (at ≤4096² f32 the whole matrix is
///     one tile, the 1R1W limit case).
///   - With more than one worker, page-wide tiles (page_tile_w<T>) when the
///     image holds at least 2·workers of them along each side. Every
///     tile-row segment then covers one whole page, where a narrower one
///     starts a new page every few KiB (a TLB walk and a hardware-prefetch
///     restart each time): 12288² f32 on 4 workers ran 39.0 ms at W = 1024
///     against 48.3 ms at W = 512. Two tiles per worker per side keep
///     the anti-diagonals longer than the worker count for most of the
///     sweep, so the fast path stays hot.
///   - Otherwise, with more than one worker, an L2 cap: a W² slow-path
///     staging tile must stay L2-resident (W²·sizeof(T) ≤ kL2StagingBytes
///     ⇒ W ≤ 512 for a 4-byte T), rounded down to a multiple of 64
///     elements so every tile column starts on a cache line. Small tiles
///     fill a short wavefront sooner and bound what a look-back tile
///     stages: at 4096² f32 on 4 workers, W = 512 ran 4.33 ms against
///     7.85 ms at W = 1024.
///
/// Never below 128 (diagonal-major order is cache-hostile at small W).
template <class T>
constexpr std::size_t auto_tile_w(std::size_t rows, std::size_t cols,
                                  std::size_t workers) {
  constexpr std::size_t kMinW = 128;
  constexpr std::size_t kAccRowBytes = std::size_t{16} << 10;
  const std::size_t nw = std::max<std::size_t>(1, workers);
  std::size_t w = std::max(kMinW, (std::max(rows, cols) + nw - 1) / nw);
  w = std::min(w, std::max(kMinW, kAccRowBytes / sizeof(T)));
  if (nw > 1) {
    if (std::min(rows, cols) / page_tile_w<T>() >= 2 * nw)
      return page_tile_w<T>();
    std::size_t l2 = 64;
    while ((l2 + 64) * (l2 + 64) * sizeof(T) <= kL2StagingBytes) l2 += 64;
    w = std::min(w, std::max(kMinW, l2));
  }
  return w;
}

namespace detail {

/// dst[j] = a[j] + b + off[j] for j in [0, n) — the look-back path's fix-up
/// store (tile-local SAT + row-band prefix + column-band/corner prefix).
/// Streams through non-temporal stores when allowed and aligned, mirroring
/// simd_row_scan_acc's gating.
template <class T>
void simd_offset_store(const T* a, const T* off, T b, T* dst, std::size_t n,
                       bool allow_stream) {
  using V = satsimd::Vec<T>;
  std::size_t j = 0;
  if (n >= V::width) {
    const V vb = V::broadcast(b);
    const bool stream =
        allow_stream &&
        reinterpret_cast<std::uintptr_t>(dst) % (V::width * sizeof(T)) == 0;
    auto loop = [&](auto streamed) {
      for (; j + V::width <= n; j += V::width) {
        const V out = V::load(a + j) + vb + V::load(off + j);
        if constexpr (decltype(streamed)::value) out.store_stream(dst + j);
        else out.store(dst + j);
      }
    };
    if (stream) loop(std::true_type{});
    else loop(std::false_type{});
  }
  for (; j < n; ++j) dst[j] = a[j] + b + off[j];
}

/// Per-worker scratch arena: page-aligned, first-touched by the owning
/// worker thread. Under the first-touch NUMA policy the OS backs a page on
/// the node of the thread that first *writes* it, so the arena is
/// constructed inside the worker body and faults its own pages there —
/// both the prefix rows and the (lazy) W² tile buffer land on the worker's
/// node. Page alignment keeps one worker's scratch from sharing a page
/// (and hence a placement decision, or a false-shared tail line) with a
/// peer's. The tile buffer is W² elements and is allocated only on the
/// first slow-path tile — a worker whose every tile takes the fast path
/// (always true with one worker) never touches it. Faulting in a fresh
/// buffer costs more than sweeping the tile (0.4 ms for 1 MiB on a 4-core
/// KVM Xeon), so each thread keeps its buffer across engine calls for
/// tiles up to page-wide (page_tile_w<T>: 4 MiB for a 4-byte T); a wider
/// explicit tile_w gets one per call. Both come from satutil::large_array,
/// so from 2 MiB up they are huge-page-backed where the OS allows. The
/// accumulator row and the tile buffer hold T (what the scan kernels
/// produce); the three prefix rows hold S, the type the look-back sums are
/// published in.
template <class T, class S>
class TileArena {
  static_assert(std::is_arithmetic_v<T> && std::is_arithmetic_v<S>,
                "arena scratch is zero-filled bytewise");

 public:
  explicit TileArena(std::size_t w)
      : w_(w),
        sums_at_((w * sizeof(T) + 63) / 64 * 64),
        rows_(alloc_touched(sums_at_ + 3 * w * sizeof(S))) {}

  T* acc() noexcept { return reinterpret_cast<T*>(rows_.get()); }
  S* grs_left() noexcept { return sums(0); }
  S* gcs_up() noexcept { return sums(1); }
  S* offrow() noexcept { return sums(2); }

  /// The W² tile buffer, faulted on first slow-path use.
  T* tile() {
    const std::size_t n = w_ * w_;
    if (w_ <= page_tile_w<T>()) {
      thread_local satutil::LargeArray<T> kept;
      thread_local std::size_t kept_n = 0;
      if (kept_n < n) {
        kept = touched_tile(n);
        kept_n = n;
      }
      return kept.get();
    }
    if (tile_ == nullptr) tile_ = touched_tile(n);
    return tile_.get();
  }

 private:
  struct PageFree {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t{kPageBytes});
    }
  };
  using Block = std::unique_ptr<std::byte[], PageFree>;

  static Block alloc_touched(std::size_t bytes) {
    bytes = (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
    Block b(static_cast<std::byte*>(
                ::operator new(bytes, std::align_val_t{kPageBytes})),
            PageFree{});
    // The first touch: fault (and zero) every page on the calling thread.
    std::memset(b.get(), 0, bytes);
    return b;
  }

  static satutil::LargeArray<T> touched_tile(std::size_t n) {
    satutil::LargeArray<T> t = satutil::large_array<T>(n);
    std::memset(t.get(), 0, n * sizeof(T));  // first touch, as above
    return t;
  }

  S* sums(std::size_t k) noexcept {
    return reinterpret_cast<S*>(rows_.get() + sums_at_) + k * w_;
  }

  std::size_t w_;
  std::size_t sums_at_;  ///< byte offset of the S rows, cache-line aligned
  Block rows_;
  satutil::LargeArray<T> tile_;
};

/// The engine behind all four entries: `Out` is satutil::Span2d<T> (dense)
/// or sat::TiledSat<T>* (tiled base+residual); see the header comment.
template <class T, class Out>
void skss_lb_engine(ThreadPool& pool,
                    const std::vector<satutil::Span2d<const T>>& srcs,
                    const std::vector<Out>& outs, const SkssLbOptions& opt) {
  constexpr bool kTiled = std::is_same_v<Out, sat::TiledSat<T>*>;
  static_assert(kTiled || std::is_same_v<Out, satutil::Span2d<T>>);
  // The published look-back sums: wide for tiled, so the bases stay exact.
  using S = std::conditional_t<kTiled, typename sat::TiledSat<T>::Wide, T>;

  const std::size_t batch = srcs.size();
  SAT_CHECK(outs.size() == batch);
  if (batch == 0) return;
  const std::size_t rows = srcs[0].rows();
  const std::size_t cols = srcs[0].cols();
  const std::size_t nworkers =
      opt.workers != 0 ? opt.workers : pool.size();
  std::size_t w = opt.tile_w;
  if constexpr (kTiled) {
    SAT_CHECK(outs[0] != nullptr);
    SAT_CHECK_MSG(w == 0 || w == outs[0]->tile_w(),
                  "tile width is fixed by the TiledSat outputs");
    w = outs[0]->tile_w();
  }
  for (std::size_t b = 0; b < batch; ++b) {
    SAT_CHECK(srcs[b].rows() == rows && srcs[b].cols() == cols);
    if constexpr (kTiled)
      SAT_CHECK(outs[b] != nullptr && outs[b]->rows() == rows &&
                outs[b]->cols() == cols && outs[b]->tile_w() == w);
    else
      SAT_CHECK(outs[b].rows() == rows && outs[b].cols() == cols);
  }
  if (rows == 0 || cols == 0) return;

  // The images of a batch are in flight together, so each needs only its
  // share of the workers: a batch at least as large as the worker count
  // gets the one-worker width (one tile per image up to 4096² f32).
  // Without the share, 8 images of 1024² on 4 workers each split into 4×4
  // tiles and only 42% of tiles took the fast path.
  if (w == 0) w = auto_tile_w<T>(rows, cols, (nworkers + batch - 1) / batch);
  // Diagonal-major serials over the tile grid; edge tiles are clipped to the
  // matrix, so the grid is built on the padded-to-W shape. All images share
  // the grid; image b's tiles occupy global serials [b·tpi, (b+1)·tpi).
  const satalgo::TileGrid grid((rows + w - 1) / w * w, (cols + w - 1) / w * w,
                               w);
  const std::size_t tpi = grid.count();  // tiles per image
  std::vector<LookbackAux<S>> aux;
  aux.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) aux.emplace_back(tpi, w);
  const std::size_t total = batch * tpi;
  // satlint: allow(atomic-whitelist) -- the paper's atomicAdd work counter.
  // A serial carries no payload (all tile data flows through StatusFlags
  // release/acquire pairs), so a bare relaxed counter is the whole claim
  // protocol; see the deadlock-freedom note in the header comment.
  std::atomic<std::size_t> work_counter{0};

  LookbackObs obs;
  obs.resolve(opt.metrics);
  int trace_pid = 0;
#if SATLIB_OBS_ENABLED
  if (opt.trace != nullptr)
    trace_pid = opt.trace->register_process(kTiled ? "host skss-lb-resid"
                                                   : "host skss-lb");
  std::vector<std::size_t> overlap_count(nworkers, 0);
#endif

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;

  auto worker = [&](std::size_t worker_index) {
    // Per-worker scratch, first-touched on this thread (see TileArena).
    TileArena<T, S> arena(w);
    T* acc = arena.acc();

    for (;;) {
      // Self-assignment in diagonal-major order: the host form of the
      // paper's atomicAdd work counter, one tile per claim.
      if (testhook::g_sched_hook != nullptr)
        testhook::g_sched_hook->on_claim();
      const std::size_t serial =
          work_counter.fetch_add(1, std::memory_order_relaxed);
      if (serial >= total) break;
      if (opt.tile_hook) opt.tile_hook(serial);
      const std::size_t img = serial / tpi;
      const std::size_t local = serial % tpi;  // serial within the image
#if SATLIB_OBS_ENABLED
      // Pipeline overlap: this tile starts while the previous image's
      // terminal tile (largest σ ⇒ row-major index tpi−1) is still
      // unpublished. A metric, not a gate — tiles of different images
      // share no data.
      if (obs.overlap_tiles != nullptr && img > 0 &&
          aux[img - 1].r_status.peek(tpi - 1) < hflag::kGs)
        ++overlap_count[worker_index];
      const double ts = opt.trace != nullptr ? opt.trace->now_host_us() : 0.0;
#endif
      // The tile body stays inline in the claim loop rather than in a
      // helper: outlined, the tiled output's 8K-frame encode ran ~10%
      // slower (4-core AVX2 Xeon, GCC 12 -O2) while the dense output did
      // not move.
      LookbackAux<S>& iaux = aux[img];
      const satutil::Span2d<const T> src = srcs[img];
      const Out out = outs[img];

      const auto [ti, tj] = grid.tile_of_serial(local);
      const std::size_t self = grid.idx(ti, tj);
      const std::size_t r0 = ti * w, c0 = tj * w;
      const std::size_t P = std::min(w, rows - r0);  // tile rows
      const std::size_t Q = std::min(w, cols - c0);  // tile cols
      const std::size_t left = tj > 0 ? grid.idx(ti, tj - 1) : 0;
      const std::size_t up = ti > 0 ? grid.idx(ti - 1, tj) : 0;
      const std::size_t diag = (ti > 0 && tj > 0) ? grid.idx(ti - 1, tj - 1)
                                                  : 0;
      S* grs_self = iaux.grs.get() + iaux.vec_base(self);
      S* gcs_self = iaux.gcs.get() + iaux.vec_base(self);

      bool fast = false;
      if constexpr (!kTiled) {
        fast = (tj == 0 || iaux.r_status.peek(left) >= hflag::kGrs) &&
               (ti == 0 || iaux.c_status.peek(up) >= hflag::kGcs) &&
               (ti == 0 || tj == 0 || iaux.r_status.peek(diag) >= hflag::kGs);
        if (fast) {
          // Every prefix is already GLOBAL: one fused sweep straight into
          // dst, seeded with the predecessors' prefixes. Row p's carry-in is
          // GRS(I,J−1)[p]; the accumulator row starts at the inclusive
          // prefix of GCS(I−1,J) plus GS(I−1,J−1), so each output element is
          // final as it is stored.
          const T* grs_in =
              tj > 0 ? iaux.grs.get() + iaux.vec_base(left) : nullptr;
          const T* gcs_in =
              ti > 0 ? iaux.gcs.get() + iaux.vec_base(up) : nullptr;
          const T corner = (ti > 0 && tj > 0) ? iaux.gs[diag] : T{};
          T band_left{};  // Σ GRS(I,J−1) — SAT(r1, c0−1) together with corner
          {
            T run = corner;
            for (std::size_t q = 0; q < Q; ++q) {
              run += gcs_in != nullptr ? gcs_in[q] : T{};
              acc[q] = run;
            }
          }
          std::size_t p = 0;
          for (; p + 4 <= P; p += 4) {
            const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                                 &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
            T* drows[4] = {&out(r0 + p, c0), &out(r0 + p + 1, c0),
                           &out(r0 + p + 2, c0), &out(r0 + p + 3, c0)};
            T carries[4];
            for (std::size_t k = 0; k < 4; ++k) {
              carries[k] = grs_in != nullptr ? grs_in[p + k] : T{};
              band_left += carries[k];
            }
            simd_row_scan_acc4(srows, acc, drows, Q, carries, allow_stream);
            for (std::size_t k = 0; k < 4; ++k) grs_self[p + k] = carries[k];
          }
          for (; p < P; ++p) {
            const T carry_in = grs_in != nullptr ? grs_in[p] : T{};
            band_left += carry_in;
            grs_self[p] = simd_row_scan_acc(&src(r0 + p, c0), acc,
                                            &out(r0 + p, c0), Q, carry_in,
                                            allow_stream);
          }
          // acc now holds the tile's bottom output row: GCS by differencing
          // (exact for integral T), GS is its last entry.
          gcs_self[0] = acc[0] - (band_left + corner);
          for (std::size_t q = 1; q < Q; ++q)
            gcs_self[q] = acc[q] - acc[q - 1];
          iaux.gs[self] = acc[Q - 1];
          // Flags are monotone: publishing the terminal states directly is
          // indistinguishable from a fast publisher (no waiter can observe
          // the skipped LOCAL/GLS states).
          iaux.r_status.publish(self, hflag::kGs);
          iaux.c_status.publish(self, hflag::kGcs);
#if SATLIB_OBS_ENABLED
          if (obs.fastpath_tiles != nullptr) {
            obs.fastpath_tiles->add();
            if (tj > 0) obs.depth->record(1);
            if (ti > 0) obs.depth->record(1);
            if (ti > 0 && tj > 0) obs.depth->record(1);
          }
#endif
        }
      }
      if (!fast) {
        T* tilebuf = arena.tile();
        S* lrs_self = iaux.lrs.get() + iaux.vec_base(self);
        S* lcs_self = iaux.lcs.get() + iaux.vec_base(self);

        // Step 1: the tile's LOCAL SAT into the cache-resident buffer; the
        // row carries are LRS, the bottom row's differences are LCS. The
        // tiled output folds each row into the tile's value range right
        // behind the kernel call, while the row is still L1-hot, so the
        // encoder needs no second sweep over a by-then cold tile.
        std::fill(acc, acc + Q, T{});
        [[maybe_unused]] T mn{}, mx{};
        [[maybe_unused]] auto track_rows = [&](std::size_t p0,
                                               std::size_t count) {
          if (p0 == 0) mn = mx = tilebuf[0];
          for (std::size_t k = 0; k < count; ++k)
            sat::detail::update_range(tilebuf + (p0 + k) * w, Q, mn, mx);
        };
        {
          std::size_t p = 0;
          for (; p + 4 <= P; p += 4) {
            const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                                 &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
            T* brows[4] = {tilebuf + p * w, tilebuf + (p + 1) * w,
                           tilebuf + (p + 2) * w, tilebuf + (p + 3) * w};
            T carries[4] = {T{}, T{}, T{}, T{}};
            simd_row_scan_acc4(srows, acc, brows, Q, carries,
                               /*allow_stream=*/false);
            for (std::size_t k = 0; k < 4; ++k)
              lrs_self[p + k] = static_cast<S>(carries[k]);
            if constexpr (kTiled) track_rows(p, 4);
          }
          for (; p < P; ++p) {
            lrs_self[p] = static_cast<S>(
                simd_row_scan_acc(&src(r0 + p, c0), acc, tilebuf + p * w, Q,
                                  T{}, /*allow_stream=*/false));
            if constexpr (kTiled) track_rows(p, 1);
          }
        }
        const T* bottom = tilebuf + (P - 1) * w;
        lcs_self[0] = static_cast<S>(bottom[0]);
        for (std::size_t q = 1; q < Q; ++q)
          lcs_self[q] =
              static_cast<S>(bottom[q]) - static_cast<S>(bottom[q - 1]);

        // Steps 2.A.1 / 2.B.1: publish the LOCAL sums.
        iaux.r_status.publish(self, hflag::kLrs);
        iaux.c_status.publish(self, hflag::kLcs);

        // Steps 2.A.2–3: look back leftwards for GRS(I,J−1) (Figure 10).
        S* grs_left = arena.grs_left();
        std::fill(grs_left, grs_left + P, S{});
        if (tj > 0) {
          const std::size_t d = lookback_accumulate(
              iaux.r_status, iaux.lrs.get(), iaux.grs.get(), w, tj, P,
              grs_left, hflag::kLrs, hflag::kGrs, obs,
              [&](std::size_t k) { return grid.idx(ti, tj - 1 - k); });
#if SATLIB_OBS_ENABLED
          if (obs.depth != nullptr) obs.depth->record(d);
#else
          (void)d;
#endif
        }
        for (std::size_t p = 0; p < P; ++p)
          grs_self[p] = grs_left[p] + lrs_self[p];
        iaux.r_status.publish(self, hflag::kGrs);

        // Steps 2.B.2–3: the same look-back upwards for GCS(I−1,J).
        S* gcs_up = arena.gcs_up();
        std::fill(gcs_up, gcs_up + Q, S{});
        if (ti > 0) {
          const std::size_t d = lookback_accumulate(
              iaux.c_status, iaux.lcs.get(), iaux.gcs.get(), w, ti, Q,
              gcs_up, hflag::kLcs, hflag::kGcs, obs,
              [&](std::size_t k) { return grid.idx(ti - 1 - k, tj); });
#if SATLIB_OBS_ENABLED
          if (obs.depth != nullptr) obs.depth->record(d);
#else
          (void)d;
#endif
        }
        for (std::size_t q = 0; q < Q; ++q)
          gcs_self[q] = gcs_up[q] + lcs_self[q];
        iaux.c_status.publish(self, hflag::kGcs);

        // Step 3.1: GLS(I,J), the L-shaped band sum (Figure 11).
        S gls_val{};
        for (std::size_t p = 0; p < P; ++p)
          gls_val += grs_left[p] + lrs_self[p];
        for (std::size_t q = 0; q < Q; ++q) gls_val += gcs_up[q];
        iaux.gls[self] = gls_val;
        iaux.r_status.publish(self, hflag::kGls);

        // Steps 3.2–3.3: diagonal look-back for GS(I−1,J−1); GS telescopes
        // into ΣGLS, and a border tile's GLS equals its GS, so the walk
        // terminates at k = min(I,J) even if no GS is published yet.
        S gs_corner{};
        if (ti > 0 && tj > 0) {
          const std::size_t d = lookback_accumulate(
              iaux.r_status, iaux.gls.get(), iaux.gs.get(), 1,
              std::min(ti, tj), 1, &gs_corner, hflag::kGls, hflag::kGs, obs,
              [&](std::size_t k) { return grid.idx(ti - 1 - k, tj - 1 - k); });
#if SATLIB_OBS_ENABLED
          if (obs.depth != nullptr) obs.depth->record(d);
#else
          (void)d;
#endif
        }
        iaux.gs[self] = gs_corner + gls_val;
        iaux.r_status.publish(self, hflag::kGs);

        // Step 4: the single store of the tile, prefixes folded in on the
        // way out: local SAT + row-band prefix + column-band/corner row.
        S* offrow = arena.offrow();
        {
          S run = gs_corner;
          for (std::size_t q = 0; q < Q; ++q) {
            run += gcs_up[q];
            offrow[q] = run;
          }
        }
        if constexpr (kTiled) {
          // The band prefix IS RowBand and the offset row IS ColBand
          // (sat/storage.hpp header); grs_left becomes RowBand in place.
          S run{};
          for (std::size_t p = 0; p < P; ++p) {
            run += grs_left[p];
            grs_left[p] = run;
          }
          out->encode_tile(out->tile_index(ti, tj), tilebuf, w, P, Q, grs_left,
                           offrow, mn, mx, allow_stream);
        } else {
          T band{};
          for (std::size_t p = 0; p < P; ++p) {
            band += grs_left[p];
            simd_offset_store(tilebuf + p * w, offrow, band, &out(r0 + p, c0),
                              Q, allow_stream);
          }
        }
      }

#if SATLIB_OBS_ENABLED
      if (obs.tiles_retired != nullptr) obs.tiles_retired->add();
      if (opt.trace != nullptr) {
        // The last arg is the fast-path bit for dense and the chosen residual
        // width tag for tiled.
        int tag = fast ? 1 : 0;
        if constexpr (kTiled)
          tag = static_cast<int>(out->enc(out->tile_index(ti, tj)));
        char args[112];
        std::snprintf(
            args, sizeof args,
            "{\"serial\":%zu,\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"%s\":%d}",
            local, ti, tj, img, kTiled ? "enc" : "fast", tag);
        opt.trace->complete(trace_pid, worker_index, "tile", "host",
                            ts, opt.trace->now_host_us() - ts, args);
      }
#endif
    }
    satsimd::store_fence();
    if (testhook::g_sched_hook != nullptr) testhook::g_sched_hook->on_exit();
  };

  pool.run_persistent(nworkers, worker);

#if SATLIB_OBS_ENABLED
  if (opt.metrics != nullptr) {
    // Which width this call ran, so a trace or ledger row shows whether
    // auto_tile_w's page-wide rule fired.
    opt.metrics->gauge("host.lookback.tile_w").set(static_cast<double>(w));
    std::size_t overlap = 0;
    for (const std::size_t c : overlap_count) overlap += c;
    if (obs.overlap_tiles != nullptr && overlap > 0)
      obs.overlap_tiles->add(overlap);
    if (batch > 1) {
      // Share of cross-image-eligible tiles (every tile of image 1..B−1)
      // claimed while their predecessor image was still in flight.
      const std::size_t eligible = (batch - 1) * tpi;
      opt.metrics->gauge("host.lookback.pipeline_overlap_pct")
          .set(100.0 * static_cast<double>(overlap) /
               static_cast<double>(eligible));
    }
    if constexpr (kTiled) {
      std::size_t resid = 0, dense = 0, overflow = 0;
      for (const sat::TiledSat<T>* o : outs) {
        resid += o->residual_bytes();
        dense += o->dense_bytes();
        overflow += o->overflow_tiles();
      }
      opt.metrics->counter("host.storage.residual_bytes").add(resid);
      opt.metrics->counter("host.storage.dense_bytes").add(dense);
      if (overflow > 0)
        opt.metrics->counter("host.storage.overflow_tiles").add(overflow);
    }
  }
#endif
}

}  // namespace detail

/// Computes the SATs of `srcs[b]` into `dsts[b]` for every image of the
/// batch with the host 1R1W-SKSS-LB engine, pipelining tiles of image k+1
/// behind the draining tail of image k (see the header comment). All images
/// must share one shape; each `dsts[b]` must match it and not alias its
/// source. Results are exact for integral T; floating-point results differ
/// from the sequential oracle only by association order (the look-back
/// path's accumulation order depends on predecessor timing, like the
/// device algorithm).
template <class T>
void sat_skss_lb_batch(ThreadPool& pool,
                       const std::vector<satutil::Span2d<const T>>& srcs,
                       const std::vector<satutil::Span2d<T>>& dsts,
                       const SkssLbOptions& opt = {}) {
  detail::skss_lb_engine<T>(pool, srcs, dsts, opt);
}

/// Computes the SAT of `src` into `dst` with the host 1R1W-SKSS-LB engine.
/// `src` and `dst` must have identical shape and must not alias. The
/// single-image form of sat_skss_lb_batch (a batch of one).
template <class T>
void sat_skss_lb(ThreadPool& pool, satutil::Span2d<const T> src,
                 satutil::Span2d<T> dst, const SkssLbOptions& opt = {}) {
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  sat_skss_lb_batch<T>(pool, {src}, {dst}, opt);
}

/// The same engine with a tiled base+residual output per image (see the
/// header comment), pipelined across images exactly like sat_skss_lb_batch.
/// All images share one shape; every `outs[b]` must match it and all must
/// share one tile width, which fixes W (opt.tile_w, if set, must agree).
template <class T>
void sat_skss_lb_residual_batch(
    ThreadPool& pool, const std::vector<satutil::Span2d<const T>>& srcs,
    const std::vector<sat::TiledSat<T>*>& outs,
    const SkssLbOptions& opt = {}) {
  detail::skss_lb_engine<T>(pool, srcs, outs, opt);
}

/// Single-image form of sat_skss_lb_residual_batch (a batch of one).
template <class T>
void sat_skss_lb_residual(ThreadPool& pool, satutil::Span2d<const T> src,
                          sat::TiledSat<T>& out,
                          const SkssLbOptions& opt = {}) {
  sat_skss_lb_residual_batch<T>(pool, {src}, {&out}, opt);
}

}  // namespace sathost
