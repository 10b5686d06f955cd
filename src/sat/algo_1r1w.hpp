// 1R1W algorithm (Kasagi et al. [14]): global-memory-access-optimal SAT in
// 2·n/W − 1 kernel calls.
//
// Kernel K computes GSAT(I,J) for every tile on anti-diagonal I+J = K. The
// borders GRS(I,J−1), GCS(I−1,J), GS(I−1,J−1) were published by earlier
// kernels; after computing GSAT the block derives and publishes its own
// GRS/GCS/GS for the next diagonal. Tiles are read once and written once
// (n² + O(n²/W) each way), but kernels near the corners hold only a few
// blocks — the low-parallelism overhead the paper's Table III exposes and
// the (1+r)R1W hybrid repairs.
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

/// The 1R1W per-tile body: load, local sums, borders, SAT, store, publish
/// GRS/GCS/GS. Shared with the hybrid's middle phase. Border reads and sum
/// publications go through the aux arrays; no flags — the caller guarantees
/// (by kernel boundary) that the predecessors are complete.
template <class T>
gpusim::BlockTask tile_1r1w_body(gpusim::BlockCtx& ctx, const TileGrid& grid,
                                 std::size_t ti, std::size_t tj,
                                 const gpusim::GlobalBuffer<T>& a,
                                 gpusim::GlobalBuffer<T>& b, SatAux<T>& aux,
                                 const SatParams& p, bool mat) {
  const std::size_t w = grid.tile_w();
  const std::size_t base = aux.vec_base(grid, ti, tj);
  gpusim::SharedTile<T> tile(w, p.arrangement, mat);
  load_tile(ctx, a, grid, ti, tj, tile);
  ctx.sync();

  // Local sums (from the unmodified tile) for this tile's own publications.
  std::vector<T> lrs = row_sums_shared(ctx, tile);
  std::vector<T> lcs = col_sums_shared(ctx, tile);

  // Borders from the previous diagonals.
  std::vector<T> grs_left, gcs_up;
  T gs_corner{};
  if (tj > 0)
    grs_left = read_aux_vector(ctx, aux.grs, aux.vec_base(grid, ti, tj - 1), w);
  if (ti > 0)
    gcs_up = read_aux_vector(ctx, aux.gcs, aux.vec_base(grid, ti - 1, tj), w);
  if (ti > 0 && tj > 0)
    gs_corner = read_aux_scalar(ctx, aux.gs, grid.idx(ti - 1, tj - 1));

  // Publish GRS/GCS/GS for the next diagonal (write-before-SAT keeps the
  // aux traffic identical to the paper's subtract-adjacent-pairs variant).
  // GS(I,J) decomposes into the four quadrants below-left of (WI+W, WJ+W):
  //   GS(I−1,J−1) + ΣGRS(I,J−1) + ΣGCS(I−1,J) + ΣLCS(I,J).
  std::vector<T> grs = vector_add<T>(ctx, grs_left, lrs, w);
  std::vector<T> gcs = vector_add<T>(ctx, gcs_up, lcs, w);
  write_aux_vector<T>(ctx, aux.grs, base, grs, w);
  write_aux_vector<T>(ctx, aux.gcs, base, gcs, w);
  const T gs = gs_corner + vector_sum<T>(ctx, lcs, w) +
               vector_sum<T>(ctx, grs_left, w) + vector_sum<T>(ctx, gcs_up, w);
  write_aux_scalar(ctx, aux.gs, grid.idx(ti, tj), gs);

  // Borders in, SAT, out.
  if (tj > 0) add_to_left_column<T>(ctx, tile, grs_left);
  if (ti > 0) add_to_top_row<T>(ctx, tile, gcs_up);
  if (ti > 0 && tj > 0) add_to_corner(ctx, tile, gs_corner);
  ctx.sync();
  sat_in_shared(ctx, tile);
  store_tile(ctx, tile, b, grid, ti, tj);
  co_return;
}

}  // namespace detail

template <class T>
RunResult run_1r1w(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                   gpusim::GlobalBuffer<T>& b, std::size_t rows,
                   std::size_t cols, const SatParams& p = {}) {
  const TileGrid grid(rows, cols, p.tile_w);
  SatAux<T> aux(sim, grid);
  const bool mat = sim.materialize;

  RunResult res;
  res.algorithm = "1R1W";

  for (std::size_t d = 0; d < grid.diagonal_count(); ++d) {
    const std::size_t i_lo = d < grid.g_cols() ? 0 : d - grid.g_cols() + 1;
    const std::size_t count = grid.diagonal_size(d);
    gpusim::LaunchConfig cfg;
    cfg.name = "1r1w.diag" + std::to_string(d);
    cfg.grid_blocks = count;
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = grid.tile_w() * grid.tile_w() * sizeof(T);
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed + d;
    auto body = [&, d, i_lo, mat](gpusim::BlockCtx& ctx,
                                  std::size_t block) -> gpusim::BlockTask {
      const std::size_t ti = i_lo + block;
      const std::size_t tj = d - ti;
      return detail::tile_1r1w_body<T>(ctx, grid, ti, tj, a, b, aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  return res;
}

}  // namespace satalgo
