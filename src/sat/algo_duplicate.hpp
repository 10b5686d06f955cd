// Matrix duplication — the paper's lower bound (cudaMemcpy device-to-device).
//
// Any SAT algorithm must read every input element and write every output
// element, so its running time cannot beat this kernel; the paper reports
// every algorithm's overhead relative to it.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>

#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"

namespace satalgo {

template <class T>
RunResult run_duplicate(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                        gpusim::GlobalBuffer<T>& b, std::size_t rows,
                        std::size_t cols, const SatParams& p = {}) {
  const std::size_t total = rows * cols;
  const std::size_t chunk =
      static_cast<std::size_t>(p.naive_threads_per_block) * 4;
  const std::size_t grid = (total + chunk - 1) / chunk;
  const bool mat = sim.materialize;

  gpusim::LaunchConfig cfg;
  cfg.name = "duplicate(" + std::to_string(rows) + "x" + std::to_string(cols) + ")";
  cfg.grid_blocks = grid;
  cfg.threads_per_block = p.naive_threads_per_block;
  cfg.order = p.order;
  cfg.record_trace = p.record_trace;
  cfg.seed = p.seed;

  auto body = [&, total, chunk, mat](gpusim::BlockCtx& ctx,
                                     std::size_t block) -> gpusim::BlockTask {
    const std::size_t base = block * chunk;
    const std::size_t len = std::min(chunk, total - base);
    ctx.read_contiguous(len, sizeof(T));
    ctx.write_contiguous(len, sizeof(T));
    if (mat) std::memcpy(b.data() + base, a.data() + base, len * sizeof(T));
    co_return;
  };

  RunResult res;
  res.algorithm = "duplicate";
  res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  return res;
}

}  // namespace satalgo
