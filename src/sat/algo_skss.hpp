// 1R1W-SKSS algorithm (Funasaka et al. [15]): one kernel, single kernel
// soft synchronization.
//
// n/W blocks self-assign tile *columns* with atomicAdd on a global counter
// and walk their column top-to-bottom. Within a column, GCP(I−1,J) — the
// bottom row of the previous GSAT — stays in shared memory, so only the
// left-border GRS(I,J−1) crosses blocks: the block spins on R[I][J−1] until
// its left neighbour publishes. One kernel call, n² + O(n²/W) reads and
// writes, but only nW/m threads (medium parallelism): columns are pipelined
// diagonally, which limits concurrency — the weakness 1R1W-SKSS-LB removes.
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

template <class T>
RunResult run_skss(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                   gpusim::GlobalBuffer<T>& b, std::size_t rows,
                   std::size_t cols, const SatParams& p = {}) {
  const TileGrid grid(rows, cols, p.tile_w);
  const std::size_t gr = grid.g_rows();
  const std::size_t gc = grid.g_cols();
  const std::size_t w = grid.tile_w();
  SatAux<T> aux(sim, grid);
  gpusim::GlobalAtomicU32 work_counter;
  const bool mat = sim.materialize;

  if (sim.checker != nullptr) {
    sim.checker->register_tile_serials(batch_serial_map(grid, 1));
    expect_skss_protocol(*sim.checker, aux.r_status);
  }

  gpusim::LaunchConfig cfg;
  cfg.name = "skss(" + std::to_string(rows) + "x" + std::to_string(cols) +
             ",W=" + std::to_string(w) + ")";
  cfg.grid_blocks = gc;
  cfg.threads_per_block = p.threads_per_block;
  cfg.shared_bytes_per_block = w * w * sizeof(T) + w * sizeof(T);
  cfg.order = p.order;
  cfg.record_trace = p.record_trace;
  cfg.seed = p.seed;

  auto body = [&, gr, gc, w, mat](gpusim::BlockCtx& ctx,
                                  std::size_t /*block*/) -> gpusim::BlockTask {
    for (;;) {
      // Yield before grabbing: persistent blocks contend for the counter in
      // real time, so the grab must happen in simulated-clock order, not in
      // coroutine-execution order (a block that never suspends would
      // otherwise race ahead and "steal" every column).
      co_await gpusim::Yield{};
      std::size_t tj;
      if (p.skss_direct_assignment) {
        tj = ctx.block_id();
      } else {
        tj = ctx.atomic_fetch_add(work_counter);
      }
      if (tj >= gc) co_return;

      // GCP(I−1, J): bottom row of the previous tile's GSAT; lives in
      // shared memory across iterations (no global traffic).
      std::vector<T> gcp(mat ? w : 0, T{});
      for (std::size_t ti = 0; ti < gr; ++ti) {
        ctx.note_tile(grid.idx(ti, tj), grid.serial(ti, tj));
        gpusim::SharedTile<T> tile(w, p.arrangement, mat);
        load_tile(ctx, a, grid, ti, tj, tile);
        ctx.sync();

        // Left border: spin on the neighbour's flag, then read GRS(I,J−1).
        std::vector<T> grs_left;
        if (tj > 0) {
          co_await ctx.wait_flag_at_least(aux.r_status, grid.idx(ti, tj - 1),
                                          rflag::kGrs);
          grs_left =
              read_aux_vector(ctx, aux.grs, aux.vec_base(grid, ti, tj - 1), w);
          add_to_left_column<T>(ctx, tile, grs_left);
        }

        // Row-wise prefix sums; the rightmost column is GRS(I,J) — publish
        // it immediately so the right neighbour can proceed.
        row_prefix_sums_shared(ctx, tile);
        ctx.sync();
        std::vector<T> grs_own;
        if (mat) {
          grs_own.assign(w, T{});
          for (std::size_t i = 0; i < w; ++i) grs_own[i] = tile.at(i, w - 1);
        }
        ctx.shared_cycles(
            w / 32, (w / 32) * (tile.conflict_factor(
                                    gpusim::SharedAccessDir::Column) -
                                1));
        write_aux_vector<T>(ctx, aux.grs, aux.vec_base(grid, ti, tj), grs_own,
                            w);
        ctx.flag_publish(aux.r_status, grid.idx(ti, tj), rflag::kGrs);

        // Top border from shared memory, then column-wise prefix sums give
        // GSAT(I,J).
        if (ti > 0) add_to_top_row<T>(ctx, tile, gcp);
        col_prefix_sums_shared(ctx, tile);
        ctx.sync();
        if (mat) {
          for (std::size_t j = 0; j < w; ++j) gcp[j] = tile.at(w - 1, j);
        }
        ctx.shared_cycles(w / 32);
        store_tile(ctx, tile, b, grid, ti, tj);
      }

      if (p.skss_direct_assignment) co_return;
    }
  };

  RunResult res;
  res.algorithm = "1R1W-SKSS";
  res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  return res;
}

}  // namespace satalgo
