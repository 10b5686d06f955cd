// 2R2W algorithm (§I-B): the straightforward two-kernel SAT.
//
// Kernel 1 assigns one thread per column and scans columns top-to-bottom —
// a warp touches 32 *consecutive columns* of one row each step, so access is
// coalesced. Kernel 2 assigns one thread per row and scans rows left-to-
// right — a warp touches 32 rows at the same column, a stride of n elements,
// so every lane occupies its own DRAM sector. Only n threads exist in either
// kernel (low parallelism). 2n² reads, 2n² writes.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"

namespace satalgo {

template <class T>
RunResult run_2r2w(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                   gpusim::GlobalBuffer<T>& b, std::size_t rows,
                   std::size_t cols, const SatParams& p = {}) {
  const bool mat = sim.materialize;
  const int col_threads = static_cast<int>(
      std::min<std::size_t>(p.naive_threads_per_block, cols));
  const int row_threads = static_cast<int>(
      std::min<std::size_t>(p.naive_threads_per_block, rows));

  RunResult res;
  res.algorithm = "2R2W";

  // Kernel 1: column-wise prefix sums, one thread per column (coalesced).
  {
    const int threads = col_threads;
    const std::size_t grid = (cols + threads - 1) / threads;
    gpusim::LaunchConfig cfg;
    cfg.name = "2r2w.columns(" + std::to_string(rows) + "x" +
               std::to_string(cols) + ")";
    cfg.grid_blocks = grid;
    cfg.threads_per_block = threads;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, rows, cols, threads, mat](
                    gpusim::BlockCtx& ctx,
                    std::size_t block) -> gpusim::BlockTask {
      const std::size_t c0 = block * static_cast<std::size_t>(threads);
      const std::size_t nc = std::min<std::size_t>(threads, cols - c0);
      // One read + one write per element; the running sums live in registers.
      // Charged as one closed-form batch over the `rows` row steps.
      ctx.read_contiguous_rows(rows, nc, sizeof(T));
      ctx.write_contiguous_rows(rows, nc, sizeof(T));
      ctx.warp_alu(rows * ((nc + 31) / 32));
      if (mat) {
        const T* in = a.data();
        T* out = b.data();
        std::vector<T> run(nc, T{});
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < nc; ++c) {
            run[c] += in[i * cols + c0 + c];
            out[i * cols + c0 + c] = run[c];
          }
      }
      co_return;
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  // Kernel 2: row-wise prefix sums in place, one thread per row (strided).
  {
    const int threads = row_threads;
    const std::size_t grid = (rows + threads - 1) / threads;
    gpusim::LaunchConfig cfg;
    cfg.name = "2r2w.rows(" + std::to_string(rows) + "x" +
               std::to_string(cols) + ")";
    cfg.grid_blocks = grid;
    cfg.threads_per_block = threads;
    cfg.order = p.order;
    cfg.record_trace = p.record_trace;
    cfg.seed = p.seed;
    auto body = [&, rows, cols, threads, mat](
                    gpusim::BlockCtx& ctx,
                    std::size_t block) -> gpusim::BlockTask {
      const std::size_t r0 = block * static_cast<std::size_t>(threads);
      const std::size_t nr = std::min<std::size_t>(threads, rows - r0);
      ctx.read_strided_walk_rows(cols, nr, sizeof(T), /*l2_reuse=*/true);
      ctx.write_strided_walk_rows(cols, nr, sizeof(T), true);
      ctx.warp_alu(cols * ((nr + 31) / 32));
      if (mat) {
        T* out = b.data();
        for (std::size_t r = r0; r < r0 + nr; ++r) {
          T run{};
          for (std::size_t j = 0; j < cols; ++j) {
            run += out[r * cols + j];
            out[r * cols + j] = run;
          }
        }
      }
      co_return;
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }

  return res;
}

}  // namespace satalgo
