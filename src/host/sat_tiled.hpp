// Host producer of the tiled base+residual store (sat::TiledSat,
// sat/storage.hpp; sat::compute_sat_tiled runs it at the default width).
// A tile's residual is its local SAT, which depends on its own input
// alone; only its O(W) bases (RowBand, ColBand) depend on other tiles. So
// the store takes two passes and no look-back protocol:
//   1. Every tile on its own, on the pool: its local SAT into a thread-kept
//      staging tile (the fused 4-row sweep, each row folded into the tile's
//      value range while it is L1-hot, the input prefetched
//      kTilePrefetchRows down the tile), its residual and bias encoded from
//      there (streamed, for 4-byte integral T on large stores), and its row
//      sums and bottom row kept in two O(n²/W) arrays.
//   2. Those become the bases: running row sums across a tile row give the
//      row bands, and the bottom rows of the tile rows above, plus the
//      corner SAT(r0−1, c0−1), give ColBand = SAT(r0−1, ·).
// Tiles are claimed one at a time off the pool's cursor (parallel_for): a
// fixed k, k+N, … split per worker ran an 8K frame 20% slower. The order is
// column-major, so the tiles in flight sit a whole tile row of slots apart
// in the tile-contiguous, huge-page-advised planes; row-major claims, with
// neighbouring slots in flight, ran query_mixed's 8K frames at a p50 of
// 47.5 ms against 38.8 ms in a prototype (cause unverified).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "host/sat_simd.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/storage.hpp"
#include "util/large_alloc.hpp"
#include "util/simd.hpp"
#include "util/span2d.hpp"

namespace sathost {

/// Rows ahead of pass 1's 4-row sweep whose input it prefetches. A tile
/// row is a short chunk a whole image row away from the next, so the
/// hardware prefetcher barely engages; 4, 8 and 16 rows measured the same.
inline constexpr std::size_t kTilePrefetchRows = 8;

/// Encodes the SAT of `srcs[b]` into `outs[b]` for every image of the batch
/// (see the header comment). All images share one shape; every `outs[b]`
/// must match it, and all share one tile width. Results are exact for
/// integral T whenever each tile-local SAT fits T. With `metrics` it adds
/// host.storage.{residual_bytes,dense_bytes,overflow_tiles}; with `trace`
/// it emits one span per tile, tagged with the residual width.
template <class T>
void sat_tiled_batch(ThreadPool& pool,
                     const std::vector<satutil::Span2d<const T>>& srcs,
                     const std::vector<sat::TiledSat<T>*>& outs,
                     obs::Registry* metrics = nullptr,
                     obs::TraceSink* trace = nullptr) {
  using Wide = typename sat::TiledSat<T>::Wide;
  const std::size_t batch = srcs.size();
  SAT_CHECK(outs.size() == batch);
  if (batch == 0) return;
  SAT_CHECK(outs[0] != nullptr);
  const std::size_t rows = outs[0]->rows(), cols = outs[0]->cols();
  const std::size_t w = outs[0]->tile_w();
  for (std::size_t b = 0; b < batch; ++b)
    SAT_CHECK(outs[b] != nullptr && outs[b]->rows() == rows &&
              outs[b]->cols() == cols && outs[b]->tile_w() == w &&
              srcs[b].rows() == rows && srcs[b].cols() == cols);
  const std::size_t tr = outs[0]->tile_rows(), tc = outs[0]->tile_cols();
  const std::size_t tpi = tr * tc, total = batch * tpi;
  // Every tile's row sums at [(img·tc + tj)·rows + r] and local bottom row
  // at [(img·tr + ti)·cols + c]; pass 1 writes every slot pass 2 reads.
  const std::unique_ptr<Wide[]> row_sums(new Wide[batch * tc * rows]);
  const std::unique_ptr<Wide[]> bottoms(new Wide[batch * tr * cols]);
  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;
  const int trace_pid =
      trace != nullptr ? trace->register_process("host tiled") : 0;

  // Pass 1, one tile per chunk, claimed in column-major order.
  pool.parallel_for(total, [&](std::size_t s) {
    const double ts = trace != nullptr ? trace->now_host_us() : 0.0;
    // The thread's staging tile and accumulator row. Faulting in a fresh
    // tile costs more than sweeping it (0.4 ms for 1 MiB on a 4-core KVM
    // Xeon), so each thread keeps the largest it has needed.
    thread_local satutil::LargeArray<T> kept;
    thread_local std::size_t kept_n = 0;
    if (kept_n < w * w + w) {
      kept_n = w * w + w;
      kept = satutil::large_array<T>(kept_n);
    }
    T* stage = kept.get();
    T* acc = stage + w * w;
    const std::size_t img = s / tpi;
    const std::size_t ti = s % tpi % tr, tj = s % tpi / tr;
    const std::size_t r0 = ti * w, c0 = tj * w;
    const std::size_t P = std::min(w, rows - r0), Q = std::min(w, cols - c0);
    const satutil::Span2d<const T> src = srcs[img];
    Wide* rs = row_sums.get() + (img * tc + tj) * rows + r0;
    std::fill(acc, acc + Q, T{});
    T mn = std::numeric_limits<T>::max();
    T mx = std::numeric_limits<T>::lowest();
    std::size_t p = 0;
    for (; p + 4 <= P; p += 4) {
      // Every 64-byte line of input rows p+8 … p+11 (clipped to the tile).
      for (std::size_t k = p + kTilePrefetchRows;
           k < std::min(P, p + kTilePrefetchRows + 4); ++k) {
        const T* row = &src(r0 + k, c0);
        const auto end = reinterpret_cast<std::uintptr_t>(row + Q);
        auto a = reinterpret_cast<std::uintptr_t>(row) & ~std::uintptr_t{63};
        for (; a < end; a += 64)
          satsimd::prefetch(reinterpret_cast<const void*>(a));
      }
      const T* srows[4] = {&src(r0 + p, c0), &src(r0 + p + 1, c0),
                           &src(r0 + p + 2, c0), &src(r0 + p + 3, c0)};
      T* brows[4] = {stage + p * w, stage + (p + 1) * w, stage + (p + 2) * w,
                     stage + (p + 3) * w};
      T carries[4] = {T{}, T{}, T{}, T{}};
      simd_row_scan_acc4(srows, acc, brows, Q, carries,
                         /*allow_stream=*/false);
      for (std::size_t k = 0; k < 4; ++k) {
        rs[p + k] = carries[k];
        sat::detail::update_range(brows[k], Q, mn, mx);
      }
    }
    for (; p < P; ++p) {
      rs[p] = simd_row_scan_acc(&src(r0 + p, c0), acc, stage + p * w, Q, T{},
                                /*allow_stream=*/false);
      sat::detail::update_range(stage + p * w, Q, mn, mx);
    }
    std::copy(acc, acc + Q, bottoms.get() + (img * tr + ti) * cols + c0);
    sat::TiledSat<T>& out = *outs[img];
    const std::size_t tile = out.tile_index(ti, tj);
    out.encode_tile(tile, stage, w, P, Q, mn, mx, allow_stream);
    if (trace != nullptr) {
      char args[96];
      std::snprintf(args, sizeof args,
                    "{\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"enc\":%d}", ti, tj,
                    img, static_cast<int>(out.enc(tile)));
      trace->complete(trace_pid, ThreadPool::lane(), "tile", "host", ts,
                      trace->now_host_us() - ts, args);
    }
  });

  // Pass 2a, per tile column: bottoms(ti) becomes the column sums of the
  // tile rows above, Σ_{ti'<ti} bottom(ti')[c], which is
  // SAT(r0−1, c) − SAT(r0−1, c0−1).
  pool.parallel_for(batch * tc, [&](std::size_t k) {
    Wide* bottom = bottoms.get() + k / tc * tr * cols;
    const std::size_t c1 = std::min(cols, (k % tc + 1) * w);
    for (std::size_t c = k % tc * w; c < c1; ++c) {
      Wide above{};
      for (std::size_t ti = 0; ti < tr; ++ti)
        above += std::exchange(bottom[ti * cols + c], above);
    }
  });
  // Pass 2b, per tile row: running row sums across the row give the row
  // bands; the sums above plus the corner SAT(r0−1, c0−1), carried along
  // the row, give the column bands.
  pool.parallel_for(batch * tr, [&](std::size_t k) {
    const std::size_t b = k / tr, r0 = k % tr * w, P = std::min(w, rows - r0);
    const Wide* above = bottoms.get() + k * cols;
    std::vector<Wide> left(P), row_band(P), col_band(w);
    Wide corner{};
    for (std::size_t tj = 0; tj < tc; ++tj) {
      const std::size_t c0 = tj * w, Q = std::min(w, cols - c0);
      Wide band{};
      for (std::size_t p = 0; p < P; ++p) row_band[p] = band += left[p];
      for (std::size_t q = 0; q < Q; ++q) col_band[q] = corner + above[c0 + q];
      corner = col_band[Q - 1];
      outs[b]->add_bands(outs[b]->tile_index(k % tr, tj), P, Q,
                         row_band.data(), col_band.data());
      const Wide* rs = row_sums.get() + (b * tc + tj) * rows + r0;
      for (std::size_t p = 0; p < P; ++p) left[p] += rs[p];
    }
  });

  if (metrics != nullptr) {
    std::size_t resid = 0, dense = 0, overflow = 0;
    for (const sat::TiledSat<T>* o : outs) {
      resid += o->residual_bytes();
      dense += o->dense_bytes();
      overflow += o->overflow_tiles();
    }
    metrics->counter("host.storage.residual_bytes").add(resid);
    metrics->counter("host.storage.dense_bytes").add(dense);
    if (overflow > 0)
      metrics->counter("host.storage.overflow_tiles").add(overflow);
  }
}

/// Single-image form of sat_tiled_batch (a batch of one).
template <class T>
void sat_tiled(ThreadPool& pool, satutil::Span2d<const T> src,
               sat::TiledSat<T>& out, obs::Registry* metrics = nullptr,
               obs::TraceSink* trace = nullptr) {
  sat_tiled_batch<T>(pool, {src}, {&out}, metrics, trace);
}

}  // namespace sathost
