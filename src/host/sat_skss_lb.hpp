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
// Two per-tile paths, one store kernel:
//   - fast path: all predecessors already GLOBAL when the tile is claimed
//     (always true for 1 worker, the common case under mild contention).
//     The tile is swept *directly* into dst, seeded with the predecessors'
//     prefixes; GRS falls out as the row carries, GCS by differencing the
//     (cache-hot) bottom output row, GS is the bottom-right output. The
//     terminal flags are published in one shot.
//   - look-back path: Merrill–Garland's reduce, look back, then scan, in
//     the paper's steps. Reduce the tile's input to its LOCAL row and
//     column sums in one read-only pass (1), publish LRS/LCS (2.A.1/2.B.1),
//     walk left for GRS (2.A.2–3), up for GCS (2.B.2–3), publish GLS (3.1),
//     walk the diagonal for GS (3.2–3.3), then store the tile through the
//     fast path's sweep, seeded with the walks' GRS(I,J−1), GCS(I−1,J) and
//     GS(I−1,J−1) (4). dst is still written exactly once; the input is
//     read twice, the second time from L2 when auto_tile_w's L2 cap set W.
// The tiled base+residual store (sat::TiledSat) is not produced here: a
// tile's residual needs no look-back, see host/sat_tiled.hpp.
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
#include "sat/tiles.hpp"
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

/// L2 budget for one W×W look-back tile's input, which the sweep reads a
/// second time after the reduce (auto_tile_w's L2 cap).
inline constexpr std::size_t kL2RereadBytes = std::size_t{1} << 20;

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
///   - Otherwise, with more than one worker, an L2 cap: a look-back tile's
///     input must still be L2-resident when the sweep reads it a second
///     time, after the reduce and the walks (W²·sizeof(T) ≤ kL2RereadBytes
///     ⇒ W ≤ 512 for a 4-byte T), rounded down to a multiple of 64
///     elements so every tile column starts on a cache line. Small tiles
///     also fill a short wavefront sooner: at 4096² f32 on 4 workers,
///     W = 512 ran 4.33 ms against 7.85 ms at W = 1024.
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
    while ((l2 + 64) * (l2 + 64) * sizeof(T) <= kL2RereadBytes) l2 += 64;
    w = std::min(w, std::max(kMinW, l2));
  }
  return w;
}

namespace detail {

/// Per-worker scratch arena: page-aligned, first-touched by the owning
/// worker thread. Under the first-touch NUMA policy the OS backs a page on
/// the node of the thread that first *writes* it, so the arena is
/// constructed inside the worker body and faults its own pages there. Page
/// alignment keeps one worker's scratch from sharing a page (and hence a
/// placement decision, or a false-shared tail line) with a peer's. Four
/// W-element rows, each starting on a cache line: the sweep's accumulator
/// row, the look-back path's GRS(I,J−1) and GCS(I−1,J) walk sums, and the
/// row carries of a look-back tile's sweep (its GRS is already published,
/// so the carries must not land in the published slot).
template <class T>
class TileArena {
  static_assert(std::is_arithmetic_v<T>,
                "arena scratch is zero-filled bytewise");

 public:
  explicit TileArena(std::size_t w)
      : stride_((w * sizeof(T) + 63) / 64 * 64),
        rows_(alloc_touched(4 * stride_)) {}

  T* acc() noexcept { return row(0); }
  T* grs_left() noexcept { return row(1); }
  T* gcs_up() noexcept { return row(2); }
  T* carries() noexcept { return row(3); }

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

  T* row(std::size_t k) noexcept {
    return reinterpret_cast<T*>(rows_.get() + k * stride_);
  }

  std::size_t stride_;  ///< bytes per row, a multiple of the cache line
  Block rows_;
};

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
  const std::size_t batch = srcs.size();
  SAT_CHECK(dsts.size() == batch);
  if (batch == 0) return;
  const std::size_t rows = srcs[0].rows();
  const std::size_t cols = srcs[0].cols();
  const std::size_t nworkers =
      opt.workers != 0 ? opt.workers : pool.size();
  for (std::size_t b = 0; b < batch; ++b)
    SAT_CHECK(srcs[b].rows() == rows && srcs[b].cols() == cols &&
              dsts[b].rows() == rows && dsts[b].cols() == cols);
  if (rows == 0 || cols == 0) return;

  // The images of a batch are in flight together, so each needs only its
  // share of the workers: a batch at least as large as the worker count
  // gets the one-worker width (one tile per image up to 4096² f32).
  // Without the share, 8 images of 1024² on 4 workers each split into 4×4
  // tiles and only 42% of tiles took the fast path.
  const std::size_t w =
      opt.tile_w != 0
          ? opt.tile_w
          : auto_tile_w<T>(rows, cols, (nworkers + batch - 1) / batch);
  // Diagonal-major serials over the tile grid; edge tiles are clipped to the
  // matrix, so the grid is built on the padded-to-W shape. All images share
  // the grid; image b's tiles occupy global serials [b·tpi, (b+1)·tpi).
  const satalgo::TileGrid grid((rows + w - 1) / w * w, (cols + w - 1) / w * w,
                               w);
  const std::size_t tpi = grid.count();  // tiles per image
  std::vector<LookbackAux<T>> aux;
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
  const int trace_pid =
      opt.trace != nullptr ? opt.trace->register_process("host skss-lb") : 0;
  std::vector<std::size_t> overlap_count(nworkers, 0);

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;

  auto worker = [&](std::size_t worker_index) {
    // Per-worker scratch, first-touched on this thread (see TileArena).
    detail::TileArena<T> arena(w);
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
      // Pipeline overlap: this tile starts while the previous image's
      // terminal tile (largest σ ⇒ row-major index tpi−1) is still
      // unpublished. A metric, not a gate — tiles of different images
      // share no data.
      if (obs.overlap_tiles != nullptr && img > 0 &&
          aux[img - 1].r_status.peek(tpi - 1) < hflag::kGs)
        ++overlap_count[worker_index];
      const double ts = opt.trace != nullptr ? opt.trace->now_host_us() : 0.0;
      LookbackAux<T>& iaux = aux[img];
      const satutil::Span2d<const T> src = srcs[img];
      const satutil::Span2d<T> out = dsts[img];

      const auto [ti, tj] = grid.tile_of_serial(local);
      const std::size_t self = grid.idx(ti, tj);
      const std::size_t r0 = ti * w, c0 = tj * w;
      const std::size_t P = std::min(w, rows - r0);  // tile rows
      const std::size_t Q = std::min(w, cols - c0);  // tile cols
      const std::size_t left = tj > 0 ? grid.idx(ti, tj - 1) : 0;
      const std::size_t up = ti > 0 ? grid.idx(ti - 1, tj) : 0;
      const std::size_t diag = (ti > 0 && tj > 0) ? grid.idx(ti - 1, tj - 1)
                                                  : 0;
      T* grs_self = iaux.grs.get() + iaux.vec_base(self);
      T* gcs_self = iaux.gcs.get() + iaux.vec_base(self);

      // The one store of both paths: a fused sweep straight into dst,
      // seeded with GRS(I,J−1) (`grs_in`, row p's carry-in; null = 0),
      // GCS(I−1,J) (`gcs_in`) and GS(I−1,J−1) (`corner`). The accumulator
      // row starts at the inclusive prefix of GCS(I−1,J) plus GS(I−1,J−1),
      // so each output element is final as it is stored. Row carry-outs go
      // to `carries`; returns Σ GRS(I,J−1), which with `corner` is
      // SAT(r1, c0−1).
      auto sweep = [&](const T* grs_in, const T* gcs_in, T corner,
                       T* carries) {
        T band_left{};
        T run = corner;
        for (std::size_t q = 0; q < Q; ++q) {
          run += gcs_in != nullptr ? gcs_in[q] : T{};
          acc[q] = run;
        }
        std::size_t p = 0;
        for (; p + 4 <= P; p += 4) {
          const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                               &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
          T* drows[4] = {&out(r0 + p, c0), &out(r0 + p + 1, c0),
                         &out(r0 + p + 2, c0), &out(r0 + p + 3, c0)};
          T c4[4];
          for (std::size_t k = 0; k < 4; ++k) {
            c4[k] = grs_in != nullptr ? grs_in[p + k] : T{};
            band_left += c4[k];
          }
          simd_row_scan_acc4(srows, acc, drows, Q, c4, allow_stream);
          for (std::size_t k = 0; k < 4; ++k) carries[p + k] = c4[k];
        }
        for (; p < P; ++p) {
          const T carry_in = grs_in != nullptr ? grs_in[p] : T{};
          band_left += carry_in;
          carries[p] = simd_row_scan_acc(&src(r0 + p, c0), acc,
                                         &out(r0 + p, c0), Q, carry_in,
                                         allow_stream);
        }
        return band_left;
      };

      const bool fast =
          (tj == 0 || iaux.r_status.peek(left) >= hflag::kGrs) &&
          (ti == 0 || iaux.c_status.peek(up) >= hflag::kGcs) &&
          (ti == 0 || tj == 0 || iaux.r_status.peek(diag) >= hflag::kGs);
      if (fast) {
        // Every prefix is already GLOBAL: sweep with the predecessors'
        // published slots; the row carries ARE GRS(I,J).
        const T corner = (ti > 0 && tj > 0) ? iaux.gs[diag] : T{};
        const T band_left = sweep(
            tj > 0 ? iaux.grs.get() + iaux.vec_base(left) : nullptr,
            ti > 0 ? iaux.gcs.get() + iaux.vec_base(up) : nullptr, corner,
            grs_self);
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
        if (obs.fastpath_tiles != nullptr) {
          obs.fastpath_tiles->add();
          if (tj > 0) obs.depth->record(1);
          if (ti > 0) obs.depth->record(1);
          if (ti > 0 && tj > 0) obs.depth->record(1);
        }
      } else {
        T* lrs_self = iaux.lrs.get() + iaux.vec_base(self);
        T* lcs_self = iaux.lcs.get() + iaux.vec_base(self);

        // Step 1: reduce. One read-only pass over the tile's input: each
        // row's total is LRS, the column totals accumulate into LCS.
        std::fill(lcs_self, lcs_self + Q, T{});
        for (std::size_t p = 0; p < P; ++p)
          lrs_self[p] = simd_row_reduce(&src(r0 + p, c0), lcs_self, Q);

        // Steps 2.A.1 / 2.B.1: publish the LOCAL sums.
        iaux.r_status.publish(self, hflag::kLrs);
        iaux.c_status.publish(self, hflag::kLcs);

        // Steps 2.A.2–3: look back leftwards for GRS(I,J−1) (Figure 10).
        T* grs_left = arena.grs_left();
        std::fill(grs_left, grs_left + P, T{});
        if (tj > 0)
          lookback_accumulate(
              iaux.r_status, iaux.lrs.get(), iaux.grs.get(), w, tj, P,
              grs_left, hflag::kLrs, hflag::kGrs, obs,
              [&](std::size_t k) { return grid.idx(ti, tj - 1 - k); });
        for (std::size_t p = 0; p < P; ++p)
          grs_self[p] = grs_left[p] + lrs_self[p];
        iaux.r_status.publish(self, hflag::kGrs);

        // Steps 2.B.2–3: the same look-back upwards for GCS(I−1,J).
        T* gcs_up = arena.gcs_up();
        std::fill(gcs_up, gcs_up + Q, T{});
        if (ti > 0)
          lookback_accumulate(
              iaux.c_status, iaux.lcs.get(), iaux.gcs.get(), w, ti, Q,
              gcs_up, hflag::kLcs, hflag::kGcs, obs,
              [&](std::size_t k) { return grid.idx(ti - 1 - k, tj); });
        for (std::size_t q = 0; q < Q; ++q)
          gcs_self[q] = gcs_up[q] + lcs_self[q];
        iaux.c_status.publish(self, hflag::kGcs);

        // Step 3.1: GLS(I,J), the L-shaped band sum (Figure 11).
        T gls_val{};
        for (std::size_t p = 0; p < P; ++p)
          gls_val += grs_left[p] + lrs_self[p];
        for (std::size_t q = 0; q < Q; ++q) gls_val += gcs_up[q];
        iaux.gls[self] = gls_val;
        iaux.r_status.publish(self, hflag::kGls);

        // Steps 3.2–3.3: diagonal look-back for GS(I−1,J−1); GS telescopes
        // into ΣGLS, and a border tile's GLS equals its GS, so the walk
        // terminates at k = min(I,J) even if no GS is published yet.
        T gs_corner{};
        if (ti > 0 && tj > 0)
          lookback_accumulate(
              iaux.r_status, iaux.gls.get(), iaux.gs.get(), 1,
              std::min(ti, tj), 1, &gs_corner, hflag::kGls, hflag::kGs, obs,
              [&](std::size_t k) { return grid.idx(ti - 1 - k, tj - 1 - k); });
        iaux.gs[self] = gs_corner + gls_val;
        iaux.r_status.publish(self, hflag::kGs);

        // Step 4: the single store of the tile, seeded with the walks'
        // prefixes (zero rows on the border).
        (void)sweep(grs_left, gcs_up, gs_corner, arena.carries());
      }

      if (obs.tiles_retired != nullptr) obs.tiles_retired->add();
      if (opt.trace != nullptr) {
        char args[112];
        std::snprintf(
            args, sizeof args,
            "{\"serial\":%zu,\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"fast\":%d}",
            local, ti, tj, img, fast ? 1 : 0);
        opt.trace->complete(trace_pid, worker_index, "tile", "host",
                            ts, opt.trace->now_host_us() - ts, args);
      }
    }
    satsimd::store_fence();
    if (testhook::g_sched_hook != nullptr) testhook::g_sched_hook->on_exit();
  };

  pool.run_persistent(nworkers, worker);

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
  }
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

}  // namespace sathost
