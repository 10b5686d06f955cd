// 1R1W-SKSS-LB (§IV) — the paper's contribution.
//
// One kernel; one CUDA block per tile, self-assigned with atomicAdd in
// diagonal-major serial order (Figure 9), so every look-back dependency
// points to a tile with a smaller serial number and the kernel is deadlock-
// free under any fair dispatcher with limited residency.
//
// Per tile T(I,J) the block:
//   1     loads the tile (computing LCS during the copy) and derives LRS;
//   2.A.1 publishes LRS(I,J)                        → R = 1
//   2.B.1 publishes LCS(I,J)                        → C = 1
//   2.A.2 resolves GRS(I,J−1) by looking back left over R, summing LRS of
//         predecessors until a published GRS (R ≥ 2) or column 0 (Fig. 10);
//   2.A.3 publishes GRS(I,J) = GRS(I,J−1) + LRS     → R = 2
//   2.B.2/3 same upward over C for GCS(I,J)         → C = 2
//   3.1   publishes GLS(I,J) = ΣGRS(I,J−1) + ΣGCS(I−1,J) + ΣLRS (the
//         L-shaped band sum of Fig. 11)             → R = 3
//   3.2   resolves GS(I−1,J−1) by looking back along the diagonal over R,
//         summing GLS until a published GS (R ≥ 4) or a border tile;
//   3.3   publishes GS(I,J) = GS(I−1,J−1) + GLS     → R = 4
//   4     adds the three borders, runs the shared-memory SAT, stores GSAT.
//
// Reads n² + O(n²/W), writes n² + O(n²/W), one kernel, n²/m threads — every
// column of Table I at its best value simultaneously.
//
// Batching (§V's small-matrix underutilization: a 256² input with 128²
// tiles offers the 80-SM device 4 blocks): the same kernel covers the tiles
// of B equally-shaped images in one launch. Global serials are image-major
// (image k's tiles keep their in-image diagonal-major order, offset by
// k·tiles-per-image) and every look-back stays within its image, so the
// deadlock-freedom argument carries over verbatim. A single image is the
// batch of one.
#pragma once

#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/aux_arrays.hpp"
#include "sat/params.hpp"
#include "sat/protocol_specs.hpp"
#include "sat/tile_ops.hpp"
#include "sat/tiles.hpp"

namespace satalgo {

/// Computes the SATs of `batch` images of `rows`×`cols` each, stored
/// contiguously in `a` (image k at element offset k·rows·cols), into `b`
/// with the same layout. One kernel launch total.
template <class T>
RunResult run_skss_lb_batch(gpusim::SimContext& sim,
                            gpusim::GlobalBuffer<T>& a,
                            gpusim::GlobalBuffer<T>& b, std::size_t batch,
                            std::size_t rows, std::size_t cols,
                            const SatParams& p = {}) {
  SAT_CHECK(batch >= 1);
  SAT_CHECK(a.size() >= batch * rows * cols && b.size() >= batch * rows * cols);
  const TileGrid grid(rows, cols, p.tile_w);
  const std::size_t w = grid.tile_w();
  const std::size_t per_image = grid.count();
  const std::size_t tiles = batch * per_image;
  SatAux<T> aux(sim, grid, batch);
  gpusim::GlobalAtomicU32 work_counter;
  const bool mat = sim.materialize;

  if (sim.checker != nullptr) {
    sim.checker->register_tile_serials(batch_serial_map(grid, batch));
    expect_skss_lb_protocol(*sim.checker, aux.r_status, aux.c_status);
  }

  gpusim::LaunchConfig cfg;
  cfg.name = (batch == 1 ? "skss_lb("
                         : "skss_lb_batch(" + std::to_string(batch) + "x") +
             std::to_string(rows) + "x" + std::to_string(cols) +
             ",W=" + std::to_string(w) + ")";
  cfg.grid_blocks = tiles;
  cfg.threads_per_block = p.threads_per_block;
  cfg.shared_bytes_per_block = w * w * sizeof(T);
  cfg.order = p.order;
  cfg.record_trace = p.record_trace;
  cfg.seed = p.seed;

  auto body = [&, w, per_image, tiles, mat](
                  gpusim::BlockCtx& ctx,
                  std::size_t /*block*/) -> gpusim::BlockTask {
    // Self-assignment: the atomic grab hands tiles out in *dispatch* order,
    // decoupling the work order from blockIdx. The direct-assignment
    // ablation (tile = blockIdx) deadlocks under adversarial dispatch.
    const std::size_t serial = p.skss_direct_assignment
                                   ? ctx.block_id()
                                   : ctx.atomic_fetch_add(work_counter);
    if (serial >= tiles) co_return;
    const std::size_t img = serial / per_image;
    const auto [ti, tj] = grid.tile_of_serial(serial % per_image);
    // Aux and flag index of this image's tile (I,J): image-major.
    auto cell = [&](std::size_t i, std::size_t j) {
      return img * per_image + grid.idx(i, j);
    };
    const std::size_t self = cell(ti, tj);
    const std::size_t base = self * w;
    const std::size_t image_offset = img * rows * cols;
    ctx.note_tile(self, serial);
    const bool faulty =
        p.inject != FaultInjection::kNone && serial == p.inject_serial;

    // Step 1: load tile; LCS folds into the copy, LRS from shared.
    gpusim::SharedTile<T> tile(w, p.arrangement, mat);
    load_tile(ctx, a, grid, ti, tj, tile, image_offset);
    ctx.sync();
    std::vector<T> lcs = col_sums_shared(ctx, tile);
    std::vector<T> lrs = row_sums_shared(ctx, tile);

    // Steps 2.A.1 / 2.B.1: publish the local sums (warp groups do these
    // concurrently on hardware; publishing both before any wait keeps the
    // dependency graph — and the critical path — faithful).
    if (faulty && p.inject == FaultInjection::kFlagBeforeData) {
      // Seeded inversion: the flag is released before the data it guards.
      ctx.flag_publish(aux.r_status, self, rflag::kLrs);
      write_aux_vector<T>(ctx, aux.lrs, base, lrs, w);
    } else {
      write_aux_vector<T>(ctx, aux.lrs, base, lrs, w);
      ctx.flag_publish(aux.r_status, self, rflag::kLrs);
    }
    write_aux_vector<T>(ctx, aux.lcs, base, lcs, w);
    ctx.flag_publish(aux.c_status, self, cflag::kLcs);

    if (faulty && p.inject == FaultInjection::kSigmaViolation &&
        tj + 1 < grid.g_cols()) {
      // Seeded σ-increasing edge: wait on the *right* neighbour, whose
      // serial is larger — forbidden by the §IV deadlock-freedom argument.
      co_await ctx.wait_flag_at_least(aux.r_status, cell(ti, tj + 1),
                                      rflag::kLrs);
    }

    // Step 2.A.2: look back leftwards for GRS(I,J−1) (Figure 10).
    std::vector<T> grs_left(mat ? w : 0, T{});
    if (tj > 0) {
      ctx.lookback_begin();
      std::size_t depth = 0;
      for (std::size_t back = tj; back-- > 0;) {
        const std::size_t pred = cell(ti, back);
        const std::uint8_t s =
            co_await ctx.wait_flag_at_least(aux.r_status, pred, rflag::kLrs);
        ++depth;
        if (s >= rflag::kGrs) {
          accumulate_aux_vector(ctx, aux.grs, pred * w, w, grs_left);
          break;
        }
        // R = 1: only the local sums exist; add them and keep walking.
        // At column 0, LRS(I,0) == GRS(I,0), so the walk always terminates.
        accumulate_aux_vector(ctx, aux.lrs, pred * w, w, grs_left);
      }
      ctx.note_lookback_depth(depth);
    }

    // Step 2.A.3: GRS(I,J) = GRS(I,J−1) + LRS(I,J).
    std::vector<T> grs = vector_add<T>(ctx, grs_left, lrs, w);
    write_aux_vector<T>(ctx, aux.grs, base, grs, w);
    ctx.flag_publish(aux.r_status, self, rflag::kGrs);

    // Steps 2.B.2 / 2.B.3: the same look-back upwards for GCS(I−1,J).
    std::vector<T> gcs_up(mat ? w : 0, T{});
    if (ti > 0) {
      ctx.lookback_begin();
      std::size_t depth = 0;
      for (std::size_t back = ti; back-- > 0;) {
        const std::size_t pred = cell(back, tj);
        const std::uint8_t s =
            co_await ctx.wait_flag_at_least(aux.c_status, pred, cflag::kLcs);
        ++depth;
        if (s >= cflag::kGcs) {
          accumulate_aux_vector(ctx, aux.gcs, pred * w, w, gcs_up);
          break;
        }
        accumulate_aux_vector(ctx, aux.lcs, pred * w, w, gcs_up);
      }
      ctx.note_lookback_depth(depth);
    }
    std::vector<T> gcs = vector_add<T>(ctx, gcs_up, lcs, w);
    write_aux_vector<T>(ctx, aux.gcs, base, gcs, w);
    ctx.flag_publish(aux.c_status, self, cflag::kGcs);

    // Step 3.1: GLS(I,J) — the L-shaped band sum (Figure 11).
    const T gls = vector_sum<T>(ctx, grs_left, w) +
                  vector_sum<T>(ctx, gcs_up, w) + vector_sum<T>(ctx, lrs, w);
    write_aux_scalar(ctx, aux.gls, self, gls);
    ctx.flag_publish(aux.r_status, self, rflag::kGls);

    // Step 3.2: diagonal look-back for GS(I−1,J−1). GS(I−1,J−1) telescopes
    // into ΣGLS along the diagonal; a border tile's GLS equals its GS, so
    // the walk terminates at k = min(I,J) even if no GS is published yet.
    T gs_corner{};
    if (ti > 0 && tj > 0) {
      ctx.lookback_begin();
      const std::size_t kmax = std::min(ti, tj);
      std::size_t depth = 0;
      for (std::size_t k = 1; k <= kmax; ++k) {
        const std::size_t pred = cell(ti - k, tj - k);
        const std::uint8_t s =
            co_await ctx.wait_flag_at_least(aux.r_status, pred, rflag::kGls);
        ++depth;
        if (s >= rflag::kGs) {
          gs_corner += read_aux_scalar(ctx, aux.gs, pred);
          break;
        }
        gs_corner += read_aux_scalar(ctx, aux.gls, pred);
      }
      ctx.note_lookback_depth(depth);
    }

    // Step 3.3: GS(I,J) = GS(I−1,J−1) + GLS(I,J).
    if (faulty && p.inject == FaultInjection::kFlagBeforeData) {
      // Same inversion on the terminal pair: the diagonal successor that
      // observes R = GS reads a GS value no release ever ordered.
      ctx.flag_publish(aux.r_status, self, rflag::kGs);
      write_aux_scalar(ctx, aux.gs, self, gs_corner + gls);
    } else if (faulty && p.inject == FaultInjection::kStuckTile) {
      // Seeded stuck tile: the GS value is written but its terminal state
      // is never announced — successors fall back to the GLS walk and the
      // kernel completes, yet the protocol state machine never closes.
      write_aux_scalar(ctx, aux.gs, self, gs_corner + gls);
    } else {
      write_aux_scalar(ctx, aux.gs, self, gs_corner + gls);
      ctx.flag_publish(aux.r_status, self, rflag::kGs);
    }

    // Step 4: borders in, shared SAT, GSAT out.
    if (tj > 0) add_to_left_column<T>(ctx, tile, grs_left);
    if (ti > 0) add_to_top_row<T>(ctx, tile, gcs_up);
    if (ti > 0 && tj > 0) add_to_corner(ctx, tile, gs_corner);
    ctx.sync();
    sat_in_shared(ctx, tile);
    store_tile(ctx, tile, b, grid, ti, tj, image_offset);
    co_return;
  };

  RunResult res;
  res.algorithm = batch == 1 ? "1R1W-SKSS-LB" : "1R1W-SKSS-LB (batched)";
  res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  return res;
}

/// The SAT of one `rows`×`cols` image: the batch of one.
template <class T>
RunResult run_skss_lb(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                      gpusim::GlobalBuffer<T>& b, std::size_t rows,
                      std::size_t cols, const SatParams& p = {}) {
  return run_skss_lb_batch(sim, a, b, 1, rows, cols, p);
}

}  // namespace satalgo
