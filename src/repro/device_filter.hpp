// Device-side box filter: the full pipeline (SAT build + windowed means) on
// the simulated GPU — what a real vision system would run, end to end, on
// the device. Part of the reproduction library (simulator code); the host
// vision layer (src/vision/) has the CPU box_filter.
//
// Each block produces one W×W tile of the output; every pixel is four
// gathered SAT lookups. Neighbouring pixels share SAT corners, so per-tile
// traffic is close to the (W+2r)² halo rather than 4·W² — counted exactly
// below via the sector model.
#pragma once

#include <algorithm>
#include <string>

#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"
#include "sat/tiles.hpp"

namespace satrepro {

/// Box-filters via a precomputed SAT living in device global memory.
/// `table` is the rows×cols SAT; the result (windowed means, float) is
/// written to `out`. Returns the kernel report.
template <class T>
gpusim::KernelReport run_box_filter_kernel(gpusim::SimContext& sim,
                                           const gpusim::GlobalBuffer<T>& table,
                                           gpusim::GlobalBuffer<float>& out,
                                           std::size_t rows, std::size_t cols,
                                           std::size_t radius,
                                           const satalgo::SatParams& p = {}) {
  SAT_CHECK(table.size() >= rows * cols && out.size() >= rows * cols);
  const satalgo::TileGrid grid(rows, cols, p.tile_w);
  const std::size_t w = grid.tile_w();
  const bool mat = sim.materialize;

  gpusim::LaunchConfig cfg;
  cfg.name = "box_filter(r=" + std::to_string(radius) + ")";
  cfg.grid_blocks = grid.count();
  cfg.threads_per_block = p.threads_per_block;
  cfg.shared_bytes_per_block = (w + 2 * radius) * (w + 2 * radius) * sizeof(T);
  cfg.order = p.order;
  cfg.record_trace = p.record_trace;

  auto body = [&, w, rows, cols, radius, mat](
                  gpusim::BlockCtx& ctx,
                  std::size_t block) -> gpusim::BlockTask {
    const std::size_t ti = block / grid.g_cols();
    const std::size_t tj = block % grid.g_cols();
    const std::size_t r0 = ti * w, c0 = tj * w;

    // Stage the SAT halo the tile's windows touch into shared memory:
    // rows [r0−radius−1, r0+w+radius) × cols likewise, clamped. Each halo
    // row is one coalesced segment.
    const std::size_t hr0 = r0 > radius + 1 ? r0 - radius - 1 : 0;
    const std::size_t hc0 = c0 > radius + 1 ? c0 - radius - 1 : 0;
    const std::size_t hr1 = std::min(rows, r0 + w + radius);
    const std::size_t hc1 = std::min(cols, c0 + w + radius);
    ctx.read_contiguous_rows(hr1 - hr0, hc1 - hc0, sizeof(T));
    ctx.shared_cycles((hr1 - hr0) * ((hc1 - hc0 + 31) / 32));

    // Four shared-memory lookups + the divide per pixel, then one coalesced
    // output row per tile row.
    ctx.shared_cycles(4 * (w * w / 32));
    ctx.warp_alu(5 * (w * w / 32));
    ctx.write_contiguous_rows(w, w, sizeof(T));

    if (mat) {
      const satutil::Span2d<const T> b(table.data(), rows, cols);
      for (std::size_t i = r0; i < std::min(rows, r0 + w); ++i) {
        for (std::size_t j = c0; j < std::min(cols, c0 + w); ++j) {
          const std::size_t y0 = i > radius ? i - radius : 0;
          const std::size_t x0 = j > radius ? j - radius : 0;
          const std::size_t y1 = std::min(rows, i + radius + 1);
          const std::size_t x1 = std::min(cols, j + radius + 1);
          double sum = double(b(y1 - 1, x1 - 1));
          if (y0 > 0) sum -= double(b(y0 - 1, x1 - 1));
          if (x0 > 0) sum -= double(b(y1 - 1, x0 - 1));
          if (y0 > 0 && x0 > 0) sum += double(b(y0 - 1, x0 - 1));
          out[i * cols + j] =
              float(sum / double((y1 - y0) * (x1 - x0)));
        }
      }
    }
    co_return;
  };

  return gpusim::launch_kernel(sim, cfg, body);
}

}  // namespace satrepro
