// Host encoder for Storage::kTiledResidual (sat/storage.hpp).
//
// sat_skss_lb_residual_batch is the 1R1W-SKSS-LB engine re-targeted at a
// TiledSat output, and the only producer of the tiled base+residual form
// (one worker runs it single-threaded). Identical claim-range scheduling,
// flag machine, and look-back walks as sat_skss_lb_batch
// (host/sat_skss_lb.hpp), with two deltas: the flag-published quantities
// are WIDE (LookbackAux<Wide>, so the bases stay exact past T's range), and
// step 4 — the dense fix-up store — becomes the tile encode: the look-back
// path's `band` vector IS RowBand and its `offrow` vector IS ColBand, so the
// residual encoding falls out of state the engine already computes. The
// residual width is chosen per tile at claim time from the tile's value
// range (TiledSat::encode_tile), with the wide fallback on u32 overflow.
// There is no fused fast path: residual encoding must see the whole tile
// before choosing a width, so every tile stages through the arena's local
// SAT buffer; what the engine saves is the output traffic — u16 residuals
// stream 2–4× fewer bytes than the dense table.
//
// Deadlock freedom, claim discipline, and flag semantics are exactly those
// of sat_skss_lb_batch; see that header's proof sketch.
//
// The encoder publishes host.storage.{residual_bytes,dense_bytes,
// overflow_tiles} when given a registry (docs/observability.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "host/lookback.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/storage.hpp"
#include "sat/tiles.hpp"
#include "util/span2d.hpp"

namespace sathost {

namespace detail {

inline void publish_storage_metrics(obs::Registry* reg,
                                    std::size_t residual_bytes,
                                    std::size_t dense_bytes,
                                    std::size_t overflow_tiles) {
#if SATLIB_OBS_ENABLED
  if (reg == nullptr) return;
  reg->counter("host.storage.residual_bytes").add(residual_bytes);
  reg->counter("host.storage.dense_bytes").add(dense_bytes);
  if (overflow_tiles > 0)
    reg->counter("host.storage.overflow_tiles").add(overflow_tiles);
#else
  (void)reg;
  (void)residual_bytes;
  (void)dense_bytes;
  (void)overflow_tiles;
#endif
}

}  // namespace detail

/// Batched 1R1W-SKSS-LB tiled-residual encoder: every image of the batch
/// through one claim-range scheduler pass (pipelined across images exactly
/// like sat_skss_lb_batch). All images share one shape; every `outs[b]`
/// must match it and all must share one tile width, which fixes W
/// (opt.tile_w, if set, must agree).
template <class T>
void sat_skss_lb_residual_batch(ThreadPool& pool,
                                const std::vector<satutil::Span2d<const T>>& srcs,
                                const std::vector<sat::TiledSat<T>*>& outs,
                                const SkssLbOptions& opt = {}) {
  using Wide = typename sat::TiledSat<T>::Wide;
  const std::size_t batch = srcs.size();
  SAT_CHECK(outs.size() == batch);
  if (batch == 0) return;
  const std::size_t rows = srcs[0].rows();
  const std::size_t cols = srcs[0].cols();
  SAT_CHECK(outs[0] != nullptr);
  const std::size_t w = outs[0]->tile_w();
  for (std::size_t b = 0; b < batch; ++b) {
    SAT_CHECK(srcs[b].rows() == rows && srcs[b].cols() == cols);
    SAT_CHECK(outs[b] != nullptr && outs[b]->rows() == rows &&
              outs[b]->cols() == cols && outs[b]->tile_w() == w);
  }
  SAT_CHECK_MSG(opt.tile_w == 0 || opt.tile_w == w,
                "tile width is fixed by the TiledSat outputs");
  if (rows == 0 || cols == 0) return;

  const std::size_t nworkers = opt.workers != 0 ? opt.workers : pool.size();
  const satalgo::TileGrid grid((rows + w - 1) / w * w, (cols + w - 1) / w * w,
                               w);
  const std::size_t tpi = grid.count();
  std::vector<LookbackAux<Wide>> aux;
  aux.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) aux.emplace_back(tpi, w);
  ClaimScheduler sched(batch * tpi, nworkers);

  LookbackObs obs;
  obs.resolve(opt.metrics);
  int trace_pid = 0;
#if SATLIB_OBS_ENABLED
  if (opt.trace != nullptr)
    trace_pid = opt.trace->register_process("host skss-lb-resid");
#endif

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;

  auto process_tile = [&](LookbackAux<Wide>& iaux,
                          satutil::Span2d<const T> src, sat::TiledSat<T>& out,
                          std::size_t local, std::size_t img,
                          std::size_t worker_index,
                          detail::TileArena<T>& tarena,
                          detail::TileArena<Wide>& warena) {
#if SATLIB_OBS_ENABLED
    const double ts = opt.trace != nullptr ? opt.trace->now_host_us() : 0.0;
#endif
    const auto [ti, tj] = grid.tile_of_serial(local);
    const std::size_t self = grid.idx(ti, tj);
    const std::size_t r0 = ti * w, c0 = tj * w;
    const std::size_t P = std::min(w, rows - r0);
    const std::size_t Q = std::min(w, cols - c0);
    Wide* lrs_self = iaux.lrs.get() + iaux.vec_base(self);
    Wide* lcs_self = iaux.lcs.get() + iaux.vec_base(self);
    Wide* grs_self = iaux.grs.get() + iaux.vec_base(self);
    Wide* gcs_self = iaux.gcs.get() + iaux.vec_base(self);
    T* acc = tarena.acc();
    T* tilebuf = tarena.tile();
    T* lrs_t = tarena.grs_left();  // row-carry scratch in T

    // Step 1: tile-local SAT in T — the same register-blocked sweep as the
    // dense engine's look-back path. Carries and bottom-row differences are
    // widened as they move into the flag-published slots. The value range
    // for encode_tile's width choice is folded in right behind each kernel
    // call, while the freshly written rows are still L1-hot.
    std::fill(acc, acc + Q, T{});
    T mn{}, mx{};
    auto track_rows = [&](std::size_t p0, std::size_t count) {
      if (p0 == 0) {
        mn = tilebuf[0];
        mx = tilebuf[0];
      }
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
        for (std::size_t k = 0; k < 4; ++k) lrs_t[p + k] = carries[k];
        track_rows(p, 4);
      }
      for (; p < P; ++p) {
        lrs_t[p] = simd_row_scan_acc(&src(r0 + p, c0), acc, tilebuf + p * w,
                                     Q, T{}, /*allow_stream=*/false);
        track_rows(p, 1);
      }
    }
    for (std::size_t p = 0; p < P; ++p)
      lrs_self[p] = static_cast<Wide>(lrs_t[p]);
    const T* bottom = tilebuf + (P - 1) * w;
    lcs_self[0] = static_cast<Wide>(bottom[0]);
    for (std::size_t q = 1; q < Q; ++q)
      lcs_self[q] =
          static_cast<Wide>(bottom[q]) - static_cast<Wide>(bottom[q - 1]);

    iaux.r_status.publish(self, hflag::kLrs);
    iaux.c_status.publish(self, hflag::kLcs);

    // Steps 2.A/2.B: the look-back walks, in Wide.
    Wide* grs_left = warena.grs_left();
    std::fill(grs_left, grs_left + P, Wide{});
    if (tj > 0) {
      const std::size_t d = lookback_accumulate(
          iaux.r_status, iaux.lrs.get(), iaux.grs.get(), w, tj, P, grs_left,
          hflag::kLrs, hflag::kGrs, obs,
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

    Wide* gcs_up = warena.gcs_up();
    std::fill(gcs_up, gcs_up + Q, Wide{});
    if (ti > 0) {
      const std::size_t d = lookback_accumulate(
          iaux.c_status, iaux.lcs.get(), iaux.gcs.get(), w, ti, Q, gcs_up,
          hflag::kLcs, hflag::kGcs, obs,
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

    // Step 3: GLS, then the diagonal walk for GS.
    Wide gls_val{};
    for (std::size_t p = 0; p < P; ++p)
      gls_val += grs_left[p] + lrs_self[p];
    for (std::size_t q = 0; q < Q; ++q) gls_val += gcs_up[q];
    iaux.gls[self] = gls_val;
    iaux.r_status.publish(self, hflag::kGls);

    Wide gs_corner{};
    if (ti > 0 && tj > 0) {
      const std::size_t d = lookback_accumulate(
          iaux.r_status, iaux.gls.get(), iaux.gs.get(), 1, std::min(ti, tj),
          1, &gs_corner, hflag::kGls, hflag::kGs, obs,
          [&](std::size_t k) { return grid.idx(ti - 1 - k, tj - 1 - k); });
#if SATLIB_OBS_ENABLED
      if (obs.depth != nullptr) obs.depth->record(d);
#else
      (void)d;
#endif
    }
    iaux.gs[self] = gs_corner + gls_val;
    iaux.r_status.publish(self, hflag::kGs);

    // Step 4′: instead of the dense fix-up store, emit the tile in
    // base+residual form. The look-back path's band prefix IS RowBand and
    // its offset row IS ColBand (sat/storage.hpp header).
    Wide* row_band = warena.acc();
    Wide* col_band = warena.offrow();
    {
      Wide run{};
      for (std::size_t p = 0; p < P; ++p) {
        run += grs_left[p];
        row_band[p] = run;
      }
    }
    {
      Wide run = gs_corner;
      for (std::size_t q = 0; q < Q; ++q) {
        run += gcs_up[q];
        col_band[q] = run;
      }
    }
    out.encode_tile(out.tile_index(ti, tj), tilebuf, w, P, Q, row_band,
                    col_band, mn, mx, allow_stream);

#if SATLIB_OBS_ENABLED
    if (obs.tiles_retired != nullptr) obs.tiles_retired->add();
    if (opt.trace != nullptr) {
      char args[112];
      std::snprintf(
          args, sizeof args,
          "{\"serial\":%zu,\"ti\":%zu,\"tj\":%zu,\"img\":%zu,\"enc\":%d}",
          local, ti, tj, img,
          static_cast<int>(out.enc(out.tile_index(ti, tj))));
      opt.trace->complete(trace_pid, worker_index, "tile", "host", ts,
                          opt.trace->now_host_us() - ts, args);
    }
#else
    (void)img;
    (void)worker_index;
#endif
  };

  auto worker = [&](std::size_t worker_index) {
    detail::TileArena<T> tarena(w);
    detail::TileArena<Wide> warena(w);
    for (;;) {
      const std::size_t serial = sched.next(worker_index, obs);
      if (serial == ClaimScheduler::kNone) break;
      if (opt.tile_hook) opt.tile_hook(serial);
      const std::size_t img = serial / tpi;
      const std::size_t local = serial % tpi;
      process_tile(aux[img], srcs[img], *outs[img], local, img, worker_index,
                   tarena, warena);
    }
    satsimd::store_fence();
    if (testhook::g_sched_hook != nullptr) testhook::g_sched_hook->on_exit();
  };

  pool.run_persistent(nworkers, worker);

  if (opt.metrics != nullptr) {
    std::size_t resid = 0, dense = 0, overflow = 0;
    for (const sat::TiledSat<T>* out : outs) {
      resid += out->residual_bytes();
      dense += out->dense_bytes();
      overflow += out->overflow_tiles();
    }
    detail::publish_storage_metrics(opt.metrics, resid, dense, overflow);
  }
}

/// Single-image form of sat_skss_lb_residual_batch (a batch of one).
template <class T>
void sat_skss_lb_residual(ThreadPool& pool, satutil::Span2d<const T> src,
                          sat::TiledSat<T>& out,
                          const SkssLbOptions& opt = {}) {
  sat_skss_lb_residual_batch<T>(pool, {src}, {&out}, opt);
}

}  // namespace sathost
