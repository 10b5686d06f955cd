// 2R1W algorithm (Nehab et al. [13]) — three kernels:
//
//   Kernel 1: per tile, compute and store LRS, LCS (W-vectors) and LS
//             (scalar). The input is read once and discarded.
//   Kernel 2: prefix-scan the per-tile vectors into GRS (over J), GCS
//             (over I), and compute GS as the SAT of the g×g LS array.
//   Kernel 3: per tile, reload the tile, add the GRS/GCS/GS borders, run the
//             shared-memory SAT, and store GSAT.
//
// Tiles are read twice (K1 + K3) and written once: 2n² + O(n²/W) reads,
// n² + O(n²/W) writes → overhead over duplication is at least 50 %.
#pragma once

#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/aux_arrays.hpp"
#include "sat/params.hpp"
#include "sat/tile_ops.hpp"
#include "sat/tiles.hpp"

namespace satalgo {

namespace detail {

/// Kernel 1 body, shared with the (1+r)R1W hybrid: computes the local sums
/// of one tile and publishes them to the aux arrays (no status flags — the
/// kernel boundary is the barrier).
template <class T>
gpusim::BlockTask tile_local_sums_body(gpusim::BlockCtx& ctx,
                                       const TileGrid& grid, std::size_t ti,
                                       std::size_t tj,
                                       const gpusim::GlobalBuffer<T>& a,
                                       SatAux<T>& aux, const SatParams& p,
                                       bool mat) {
  const std::size_t w = grid.tile_w();
  gpusim::SharedTile<T> tile(w, p.arrangement, mat);
  load_tile(ctx, a, grid, ti, tj, tile);
  ctx.sync();
  std::vector<T> lcs = col_sums_shared(ctx, tile);
  std::vector<T> lrs = row_sums_shared(ctx, tile);
  const T ls = vector_sum<T>(ctx, lcs, w);
  const std::size_t base = aux.vec_base(grid, ti, tj);
  write_aux_vector<T>(ctx, aux.lrs, base, lrs, w);
  write_aux_vector<T>(ctx, aux.lcs, base, lcs, w);
  write_aux_scalar(ctx, aux.ls, grid.idx(ti, tj), ls);
  co_return;
}

/// Kernel 3 body, shared with the hybrid and (for borders) 1R1W: loads the
/// tile, adds GRS(I,J−1)/GCS(I−1,J)/GS(I−1,J−1), runs the shared SAT, and
/// stores GSAT(I,J).
template <class T>
gpusim::BlockTask tile_gsat_body(gpusim::BlockCtx& ctx, const TileGrid& grid,
                                 std::size_t ti, std::size_t tj,
                                 const gpusim::GlobalBuffer<T>& a,
                                 gpusim::GlobalBuffer<T>& b, SatAux<T>& aux,
                                 const SatParams& p, bool mat) {
  const std::size_t w = grid.tile_w();
  gpusim::SharedTile<T> tile(w, p.arrangement, mat);
  load_tile(ctx, a, grid, ti, tj, tile);
  ctx.sync();
  if (tj > 0) {
    auto grs_left =
        read_aux_vector(ctx, aux.grs, aux.vec_base(grid, ti, tj - 1), w);
    add_to_left_column<T>(ctx, tile, grs_left);
  }
  if (ti > 0) {
    auto gcs_up =
        read_aux_vector(ctx, aux.gcs, aux.vec_base(grid, ti - 1, tj), w);
    add_to_top_row<T>(ctx, tile, gcs_up);
  }
  if (ti > 0 && tj > 0) {
    const T corner = read_aux_scalar(ctx, aux.gs, grid.idx(ti - 1, tj - 1));
    add_to_corner(ctx, tile, corner);
  }
  ctx.sync();
  sat_in_shared(ctx, tile);
  store_tile(ctx, tile, b, grid, ti, tj);
  co_return;
}

}  // namespace detail

template <class T>
RunResult run_2r1w(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                   gpusim::GlobalBuffer<T>& b, std::size_t rows,
                   std::size_t cols, const SatParams& p = {}) {
  const TileGrid grid(rows, cols, p.tile_w);
  const std::size_t w = grid.tile_w();
  const std::size_t gr = grid.g_rows();
  const std::size_t gc = grid.g_cols();
  SatAux<T> aux(sim, grid);
  const bool mat = sim.materialize;

  RunResult res;
  res.algorithm = "2R1W";

  // Kernel 1: local sums of every tile.
  {
    gpusim::LaunchConfig cfg;
    cfg.name = "2r1w.k1.local_sums";
    cfg.grid_blocks = grid.count();
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = w * w * sizeof(T);
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, mat, gc](gpusim::BlockCtx& ctx,
                             std::size_t block) -> gpusim::BlockTask {
      return detail::tile_local_sums_body<T>(ctx, grid, block / gc, block % gc,
                                             a, aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // Kernel 2: GRS = prefix of LRS over J; GCS = prefix of LCS over I;
  // GS = SAT of the gr×gc LS array. One thread per (tile-row, i) — resp.
  // (tile-column, j) — scans sequentially, coalesced, exactly as the paper
  // describes (`rows` threads for GRS, `cols` for GCS), with one extra
  // block computing GS.
  {
    const int threads = p.threads_per_block;
    const std::size_t grs_blocks = (rows + threads - 1) / threads;
    const std::size_t gcs_blocks = (cols + threads - 1) / threads;
    gpusim::LaunchConfig cfg;
    cfg.name = "2r1w.k2.global_sums";
    cfg.grid_blocks = grs_blocks + gcs_blocks + 1;
    cfg.threads_per_block = threads;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, grs_blocks, gcs_blocks, threads, w, gr, gc, rows, cols,
                 mat](gpusim::BlockCtx& ctx,
                      std::size_t block) -> gpusim::BlockTask {
      if (block < grs_blocks) {
        // GRS: for each (I, i) lane, scan over J. Lane index l = I*w + i;
        // consecutive lanes touch consecutive aux elements (coalesced).
        const std::size_t l0 = block * static_cast<std::size_t>(threads);
        const std::size_t nl = std::min<std::size_t>(threads, rows - l0);
        ctx.read_contiguous_rows(gc, nl, sizeof(T));
        ctx.write_contiguous_rows(gc, nl, sizeof(T));
        ctx.warp_alu(gc * ((nl + 31) / 32));
        if (mat) {
          for (std::size_t l = l0; l < l0 + nl; ++l) {
            const std::size_t ti = l / w;
            const std::size_t i = l % w;
            T run{};
            for (std::size_t tj = 0; tj < gc; ++tj) {
              run += aux.lrs[(ti * gc + tj) * w + i];
              aux.grs[(ti * gc + tj) * w + i] = run;
            }
          }
        }
      } else if (block < grs_blocks + gcs_blocks) {
        // GCS: for each (J, j) lane, scan over I.
        const std::size_t l0 =
            (block - grs_blocks) * static_cast<std::size_t>(threads);
        const std::size_t nl = std::min<std::size_t>(threads, cols - l0);
        ctx.read_contiguous_rows(gr, nl, sizeof(T));
        ctx.write_contiguous_rows(gr, nl, sizeof(T));
        ctx.warp_alu(gr * ((nl + 31) / 32));
        if (mat) {
          for (std::size_t l = l0; l < l0 + nl; ++l) {
            const std::size_t tj = l / w;
            const std::size_t j = l % w;
            T run{};
            for (std::size_t ti = 0; ti < gr; ++ti) {
              run += aux.lcs[(ti * gc + tj) * w + j];
              aux.gcs[(ti * gc + tj) * w + j] = run;
            }
          }
        }
      } else {
        // GS: SAT of the gr×gc LS array (2R2W-style, one block, tiny).
        ctx.read_contiguous_rows(gr, gc, sizeof(T));
        ctx.write_contiguous_rows(gr, gc, sizeof(T));
        ctx.warp_alu(gr * ((gc + 31) / 32));
        if (mat) {
          for (std::size_t ti = 0; ti < gr; ++ti)
            for (std::size_t tj = 0; tj < gc; ++tj) {
              T v = aux.ls[ti * gc + tj];
              if (ti > 0) v += aux.gs[(ti - 1) * gc + tj];
              if (tj > 0) v += aux.gs[ti * gc + tj - 1];
              if (ti > 0 && tj > 0) v -= aux.gs[(ti - 1) * gc + tj - 1];
              aux.gs[ti * gc + tj] = v;
            }
        }
      }
      co_return;
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // Kernel 3: GSAT of every tile from the borders.
  {
    gpusim::LaunchConfig cfg;
    cfg.name = "2r1w.k3.gsat";
    cfg.grid_blocks = grid.count();
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = w * w * sizeof(T);
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, mat, gc](gpusim::BlockCtx& ctx,
                             std::size_t block) -> gpusim::BlockTask {
      return detail::tile_gsat_body<T>(ctx, grid, block / gc, block % gc, a, b,
                                       aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  return res;
}

}  // namespace satalgo
