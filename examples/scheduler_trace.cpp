// Scheduler trace: visualize how 1R1W-SKSS-LB's per-tile blocks flow
// through the simulated device — per-tile start/finish times as an ASCII
// Gantt strip per anti-diagonal, using the simulator's built-in per-block
// trace recording.
//
// Intuition for §IV: tiles complete in diagonal waves, but blocks do NOT
// wait for whole waves — the look-back lets a tile proceed as soon as its
// row/column/diagonal predecessors have published local sums, so the waves
// overlap heavily and the device stays saturated.
//
//   ./scheduler_trace [--n 2048] [--w 128] [--algorithm skss_lb|skss]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("scheduler_trace",
                          "per-diagonal timing of single-kernel SAT blocks");
  args.add("n", "2048", "matrix side")
      .add("w", "128", "tile width")
      .add("algorithm", "skss_lb", "skss_lb or skss");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));
  const bool use_lb = args.get("algorithm") != "skss";

  gpusim::SimContext sim;
  sim.materialize = false;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = w;
  p.record_trace = true;
  const auto run = satalgo::run_algorithm(
      sim, use_lb ? satalgo::Algorithm::kSkssLb : satalgo::Algorithm::kSkss, a,
      b, n, n, p);
  const auto& rep = run.reports[0];

  const satalgo::TileGrid grid(n, w);
  const std::size_t g = grid.g();

  std::printf("%s on %zux%zu, W = %zu: %zu tiles, %zu grid blocks, %zu "
              "concurrently resident, critical path %.1f us, "
              "max look-back depth %zu\n\n",
              run.algorithm.c_str(), n, n, w, grid.count(), rep.grid_blocks,
              rep.max_concurrent_blocks, rep.critical_path_us,
              rep.max_lookback_depth);

  // Map each traced block to the tile(s) it processed. For SKSS-LB blocks
  // grab serials in admission order, which equals the logical block id under
  // natural dispatch; for SKSS one block covers a whole column.
  std::vector<double> finish(grid.count(), 0.0);
  std::vector<double> start(grid.count(), 0.0);
  for (const auto& t : rep.trace) {
    if (use_lb) {
      if (t.logical_block >= grid.count()) continue;
      const auto [ti, tj] = grid.tile_of_serial(t.logical_block);
      start[grid.idx(ti, tj)] = t.start_us;
      finish[grid.idx(ti, tj)] = t.finish_us;
    } else {
      // Column block: attribute the whole column's span to its tiles.
      for (std::size_t ti = 0; ti < g; ++ti) {
        start[grid.idx(ti, t.logical_block % g)] = t.start_us;
        finish[grid.idx(ti, t.logical_block % g)] = t.finish_us;
      }
    }
  }

  const double total = rep.critical_path_us + 1e-9;
  std::printf("per-anti-diagonal activity (#: first start .. last finish, "
              "%% of kernel):\n");
  const std::size_t width = 60;
  const std::size_t max_rows = 48;
  const std::size_t step = std::max<std::size_t>(1, (2 * g - 1) / max_rows);
  for (std::size_t d = 0; d < 2 * g - 1; d += step) {
    double lo = 1e300, hi = 0;
    const std::size_t i_lo = d < g ? 0 : d - g + 1;
    for (std::size_t k = 0; k < grid.diagonal_size(d); ++k) {
      const std::size_t idx = grid.idx(i_lo + k, d - i_lo - k);
      lo = std::min(lo, start[idx]);
      hi = std::max(hi, finish[idx]);
    }
    const auto c0 = std::size_t(lo / total * (width - 1));
    const auto c1 =
        std::min<std::size_t>(width - 1, std::size_t(hi / total * (width - 1)));
    std::string bar(width, '.');
    for (std::size_t c = c0; c <= c1; ++c) bar[c] = '#';
    std::printf("  d=%4zu (%4zu tiles) |%s| %5.1f%%..%5.1f%%\n", d,
                grid.diagonal_size(d), bar.c_str(), 100 * lo / total,
                100 * hi / total);
  }

  std::printf("\nactive blocks over time (peak-normalized):\n  |%s|\n",
              gpusim::occupancy_sparkline(rep.trace, 60).c_str());
  std::printf("mean active blocks: %.1f of %zu resident slots; stall share "
              "%.1f%%\n",
              gpusim::mean_active_blocks(rep.trace),
              rep.max_concurrent_blocks,
              100 * gpusim::wait_share(rep.trace));
  std::printf("try --algorithm skss to see the column pipeline's serial "
              "staircase for contrast.\n");
  return 0;
}
