// (1+r)R1W algorithm (Kasagi et al. [14]): hybrid of 2R1W and 1R1W.
//
// 1R1W's corner kernels hold only a few blocks, so the hybrid processes the
// first and last √r·(n/W) anti-diagonals (regions A and C of Figure 8) with
// 2R1W-style phases — reading those tiles twice — and only the wide middle
// band B with 1R1W diagonal kernels. Kernel count 2(1−√r)·n/W + 5; traffic
// (1+r)n² + O(n²/W) reads, n² + O(n²/W) writes. r trades launch/parallelism
// overhead against extra reads; the paper picks r empirically
// (bench_ablation_hybrid_r sweeps it).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/algo_1r1w.hpp"
#include "sat/algo_2r1w.hpp"
#include "sat/aux_arrays.hpp"
#include "sat/params.hpp"
#include "sat/tile_ops.hpp"
#include "sat/tiles.hpp"

namespace satalgo {

template <class T>
RunResult run_hybrid(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                     gpusim::GlobalBuffer<T>& b, std::size_t rows,
                     std::size_t cols, const SatParams& p = {}) {
  const TileGrid grid(rows, cols, p.tile_w);
  const std::size_t gr = grid.g_rows();
  const std::size_t gc = grid.g_cols();
  const std::size_t w = grid.tile_w();
  SatAux<T> aux(sim, grid);
  const bool mat = sim.materialize;

  // Boundary diagonal: region A is d < s, region C is d > D−1−s, where
  // D = gr+gc−1 diagonals exist. Clamping s ≤ min(gr,gc)−1 keeps the two
  // corner regions triangles (and disjoint, since D−1−s ≥ s then).
  const std::size_t gmin = std::min(gr, gc);
  const auto s = std::min<std::size_t>(
      std::max<std::size_t>(
          static_cast<std::size_t>(std::llround(std::sqrt(p.hybrid_r) *
                                                static_cast<double>(gmin))),
          1),
      gmin - 1);
  const std::size_t last_d = grid.diagonal_count() - 1;  // = gr+gc−2
  const auto in_a = [s](std::size_t ti, std::size_t tj) { return ti + tj < s; };
  const auto in_c = [s, last_d](std::size_t ti, std::size_t tj) {
    return ti + tj > last_d - s;
  };

  // Enumerate the A and C tiles once (row-major).
  std::vector<std::pair<std::size_t, std::size_t>> a_tiles, c_tiles;
  for (std::size_t ti = 0; ti < gr; ++ti)
    for (std::size_t tj = 0; tj < gc; ++tj) {
      if (in_a(ti, tj)) a_tiles.emplace_back(ti, tj);
      if (in_c(ti, tj)) c_tiles.emplace_back(ti, tj);
    }

  RunResult res;
  res.algorithm = "(1+r)R1W";

  const std::size_t shared_bytes = w * w * sizeof(T);
  // Degenerate grids (gmin = 1) leave regions empty; their kernels are
  // simply not launched, like a zero-block cudaLaunch.
  const bool have_ac = !a_tiles.empty() || !c_tiles.empty();

  // K1: local sums for A ∪ C.
  if (have_ac) {
    gpusim::LaunchConfig cfg;
    cfg.name = "hybrid.k1.local_sums";
    cfg.grid_blocks = a_tiles.size() + c_tiles.size();
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = shared_bytes;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, mat](gpusim::BlockCtx& ctx,
                         std::size_t block) -> gpusim::BlockTask {
      const auto [ti, tj] = block < a_tiles.size()
                                ? a_tiles[block]
                                : c_tiles[block - a_tiles.size()];
      return detail::tile_local_sums_body<T>(ctx, grid, ti, tj, a, aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // Lane-scan kernel shared by K2 (region A, scanning forward from the
  // origin) and K4 (region C, scanning forward from the published B/A
  // boundary). Lane (ti,i) accumulates GRS along row ti; lane (tj,j)
  // accumulates GCS down column tj; one trailing block resolves GS over the
  // region's tiles in diagonal order.
  auto run_region_sums = [&](const std::string& name, bool region_c) {
    const int threads = p.threads_per_block;
    const std::size_t grs_blocks = (rows + threads - 1) / threads;
    const std::size_t gcs_blocks = (cols + threads - 1) / threads;
    gpusim::LaunchConfig cfg;
    cfg.name = name;
    cfg.grid_blocks = grs_blocks + gcs_blocks + 1;
    cfg.threads_per_block = threads;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, grs_blocks, gcs_blocks, threads, region_c, mat](
                    gpusim::BlockCtx& ctx,
                    std::size_t block) -> gpusim::BlockTask {
      const std::size_t wd = w;
      if (block < grs_blocks + gcs_blocks) {
        const bool grs_pass = block < grs_blocks;
        const std::size_t lane_total = grs_pass ? rows : cols;
        // Extent of the scanned tile axis (J for GRS, I for GCS).
        const std::size_t t_extent = grs_pass ? gc : gr;
        const std::size_t l0 =
            (grs_pass ? block : block - grs_blocks) *
            static_cast<std::size_t>(threads);
        if (l0 >= lane_total) co_return;
        const std::size_t nl = std::min<std::size_t>(threads, lane_total - l0);
        // Each lane walks its row (GRS) or column (GCS) across the region.
        for (std::size_t l = l0; l < l0 + nl; ++l) {
          const std::size_t tfix = l / wd;   // tile row (GRS) / column (GCS)
          const std::size_t lane = l % wd;   // i (GRS) / j (GCS)
          std::size_t t_begin, t_end;
          if (region_c) {
            // C: tfix + tvar > last_d − s  →  tvar ≥ last_d − s − tfix + 1.
            t_begin = last_d - s + 1 > tfix ? last_d - s + 1 - tfix : 0;
            if (t_begin >= t_extent) continue;  // line has no C tiles
            SAT_DCHECK(t_begin >= 1);           // a published seed exists
            t_end = t_extent;
          } else {
            t_begin = 0;
            t_end = s > tfix ? s - tfix : 0;  // A tiles: tvar < s − tfix
            if (t_end == 0) continue;
          }
          T run{};
          if (region_c) {
            // Seed from the already-published predecessor (in B or A).
            ctx.read_contiguous(1, sizeof(T));
            if (mat) {
              const std::size_t pi = grs_pass
                                         ? aux.vec_base(grid, tfix, t_begin - 1)
                                         : aux.vec_base(grid, t_begin - 1, tfix);
              run = grs_pass ? aux.grs[pi + lane] : aux.gcs[pi + lane];
            }
          }
          ctx.read_contiguous_rows(t_end - t_begin, 1, sizeof(T));
          ctx.write_contiguous_rows(t_end - t_begin, 1, sizeof(T));
          ctx.warp_alu(t_end - t_begin);
          if (mat) {
            for (std::size_t tv = t_begin; tv < t_end; ++tv) {
              const std::size_t bi = grs_pass ? aux.vec_base(grid, tfix, tv)
                                              : aux.vec_base(grid, tv, tfix);
              if (grs_pass) {
                run += aux.lrs[bi + lane];
                aux.grs[bi + lane] = run;
              } else {
                run += aux.lcs[bi + lane];
                aux.gcs[bi + lane] = run;
              }
            }
          }
        }
      } else {
        // GS over the region's tiles (diagonal order; one block).
        auto gs_at = [&](std::size_t ti, std::size_t tj) -> T {
          if (mat) return aux.gs[grid.idx(ti, tj)];
          return T{};
        };
        const auto& tiles = region_c ? c_tiles : a_tiles;
        // c_tiles/a_tiles are row-major; row-major order is a valid
        // topological order for the gs recurrence.
        ctx.read_contiguous_rows(tiles.size(), 4, sizeof(T));
        ctx.write_contiguous_rows(tiles.size(), 1, sizeof(T));
        ctx.warp_alu(tiles.size());
        if (mat) {
          for (const auto& [ti, tj] : tiles) {
            T v = aux.ls[grid.idx(ti, tj)];
            if (ti > 0) v += gs_at(ti - 1, tj);
            if (tj > 0) v += gs_at(ti, tj - 1);
            if (ti > 0 && tj > 0) v -= gs_at(ti - 1, tj - 1);
            aux.gs[grid.idx(ti, tj)] = v;
          }
        }
      }
      co_return;
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  };

  // K2: GRS/GCS/GS for region A; K3: GSAT for region A.
  if (!a_tiles.empty()) run_region_sums("hybrid.k2.sums_A", /*region_c=*/false);
  if (!a_tiles.empty()) {
    gpusim::LaunchConfig cfg;
    cfg.name = "hybrid.k3.gsat_A";
    cfg.grid_blocks = a_tiles.size();
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = shared_bytes;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, mat](gpusim::BlockCtx& ctx,
                         std::size_t block) -> gpusim::BlockTask {
      const auto [ti, tj] = a_tiles[block];
      return detail::tile_gsat_body<T>(ctx, grid, ti, tj, a, b, aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // Middle band B: plain 1R1W diagonal kernels. The first band kernel reads
  // borders written by K2/K3; band tiles publish GRS/GCS/GS for successors.
  for (std::size_t d = s; d + s <= last_d; ++d) {
    const std::size_t i_lo = d < gc ? 0 : d - gc + 1;
    gpusim::LaunchConfig cfg;
    cfg.name = "hybrid.b.diag" + std::to_string(d);
    cfg.grid_blocks = grid.diagonal_size(d);
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = shared_bytes;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed + d;
    auto body = [&, d, i_lo, mat](gpusim::BlockCtx& ctx,
                                  std::size_t block) -> gpusim::BlockTask {
      const std::size_t ti = i_lo + block;
      return detail::tile_1r1w_body<T>(ctx, grid, ti, d - ti, a, b, aux, p,
                                       mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // K4: GRS/GCS/GS for region C; K5: GSAT for region C.
  if (!c_tiles.empty()) run_region_sums("hybrid.k4.sums_C", /*region_c=*/true);
  if (!c_tiles.empty()) {
    gpusim::LaunchConfig cfg;
    cfg.name = "hybrid.k5.gsat_C";
    cfg.grid_blocks = c_tiles.size();
    cfg.threads_per_block = p.threads_per_block;
    cfg.shared_bytes_per_block = shared_bytes;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, mat](gpusim::BlockCtx& ctx,
                         std::size_t block) -> gpusim::BlockTask {
      const auto [ti, tj] = c_tiles[block];
      return detail::tile_gsat_body<T>(ctx, grid, ti, tj, a, b, aux, p, mat);
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  return res;
}

}  // namespace satalgo
