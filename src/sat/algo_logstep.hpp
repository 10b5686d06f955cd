// Log-step (recursive-doubling) SAT — the classic PRAM-style approach of
// the paper's reference [9] (Nakano, "Optimal parallel algorithms for
// computing the sum, the prefix-sums, and the summed area table on the
// memory machine models"), included as an extra baseline beyond Table III.
//
// Column pass: log2(rows) ping-pong kernels computing
//     out[i][j] = in[i][j] + in[i−d][j]      (d = 1, 2, 4, …)
// then the same over columns. Every access is coalesced and parallelism is
// maximal, but the traffic is Θ(n² log n) — the work-inefficiency that [9]
// proves suboptimal on memory machines and that the tile algorithms avoid.
// bench_logstep quantifies the loss against 1R1W-SKSS-LB.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"

namespace satalgo {

namespace detail {

/// One doubling step along rows (axis_rows=true: out[i][j]=in[i][j]+in[i−d][j])
/// or columns. Fully coalesced; grid covers the matrix in contiguous chunks.
template <class T>
gpusim::KernelReport log_step_kernel(gpusim::SimContext& sim,
                                     const gpusim::GlobalBuffer<T>& in,
                                     gpusim::GlobalBuffer<T>& out,
                                     std::size_t rows, std::size_t cols,
                                     std::size_t d, bool axis_rows,
                                     const SatParams& p) {
  const std::size_t total = rows * cols;
  const std::size_t chunk =
      static_cast<std::size_t>(p.naive_threads_per_block) * 4;
  const bool mat = sim.materialize;

  gpusim::LaunchConfig cfg;
  cfg.name = std::string("logstep.") + (axis_rows ? "rows" : "cols") + ".d" +
             std::to_string(d);
  cfg.grid_blocks = (total + chunk - 1) / chunk;
  cfg.threads_per_block = p.naive_threads_per_block;
  cfg.order = p.order;
  cfg.record_trace = p.record_trace;
  cfg.seed = p.seed;

  auto body = [&, total, chunk, rows, cols, d, axis_rows, mat](
                  gpusim::BlockCtx& ctx,
                  std::size_t block) -> gpusim::BlockTask {
    const std::size_t base = block * chunk;
    const std::size_t len = std::min(chunk, total - base);
    // Primary stream + shifted stream (absent for the first d rows/cols)
    // + output stream; all coalesced.
    std::size_t shifted = 0;
    if (mat) {
      const T* src = in.data();
      T* dst = out.data();
      for (std::size_t k = base; k < base + len; ++k) {
        const std::size_t i = k / cols, j = k % cols;
        T v = src[k];
        if (axis_rows ? i >= d : j >= d) {
          v += src[axis_rows ? k - d * cols : k - d];
          ++shifted;
        }
        dst[k] = v;
      }
    } else {
      for (std::size_t k = base; k < base + len; ++k) {
        const std::size_t i = k / cols, j = k % cols;
        if (axis_rows ? i >= d : j >= d) ++shifted;
      }
    }
    ctx.read_contiguous(len, sizeof(T));
    if (shifted > 0) ctx.read_contiguous(shifted, sizeof(T));
    ctx.write_contiguous(len, sizeof(T));
    ctx.warp_alu((len + 31) / 32);
    co_return;
  };

  return gpusim::launch_kernel(sim, cfg, body);
}

}  // namespace detail

template <class T>
RunResult run_log_step(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                       gpusim::GlobalBuffer<T>& b, std::size_t rows,
                       std::size_t cols, const SatParams& p = {}) {
  gpusim::GlobalBuffer<T> scratch(sim, rows * cols, "logstep.scratch");
  RunResult res;
  res.algorithm = "log-step [9]";

  // Ping-pong between b and scratch; start by consuming a directly.
  const gpusim::GlobalBuffer<T>* src = &a;
  gpusim::GlobalBuffer<T>* dst = &b;
  gpusim::GlobalBuffer<T>* other = &scratch;
  auto step = [&](std::size_t d, bool axis_rows) {
    res.reports.push_back(
        detail::log_step_kernel(sim, *src, *dst, rows, cols, d, axis_rows, p));
    src = dst;
    dst = (dst == &b) ? other : &b;
  };
  for (std::size_t d = 1; d < rows; d <<= 1) step(d, /*axis_rows=*/true);
  for (std::size_t d = 1; d < cols; d <<= 1) step(d, /*axis_rows=*/false);

  // Ensure the result lands in b (an extra copy kernel when the ping-pong
  // ended in the scratch buffer — counted honestly).
  if (src != &b) {
    const std::size_t total = rows * cols;
    const std::size_t chunk =
        static_cast<std::size_t>(p.naive_threads_per_block) * 4;
    gpusim::LaunchConfig cfg;
    cfg.name = "logstep.final_copy";
    cfg.grid_blocks = (total + chunk - 1) / chunk;
    cfg.threads_per_block = p.naive_threads_per_block;
    const bool mat = sim.materialize;
    auto body = [&, total, chunk, mat](gpusim::BlockCtx& ctx,
                                       std::size_t block) -> gpusim::BlockTask {
      const std::size_t base = block * chunk;
      const std::size_t len = std::min(chunk, total - base);
      ctx.read_contiguous(len, sizeof(T));
      ctx.write_contiguous(len, sizeof(T));
      if (mat) std::memcpy(b.data() + base, src->data() + base, len * sizeof(T));
      co_return;
    };
    res.reports.push_back(gpusim::launch_kernel(sim, cfg, body));
  }
  return res;
}

}  // namespace satalgo
