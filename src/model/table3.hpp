// Shared runner for regenerating Table III: executes one (algorithm, W, n)
// cell on a fresh simulated TITAN V and prices it with the performance
// model. Used by bench_table3, the shape tests, and EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "gpusim/gpusim.hpp"
#include "model/paper_data.hpp"
#include "model/predict.hpp"
#include "sat/registry.hpp"

namespace obs {
class Registry;
class TraceSink;
}  // namespace obs

namespace satmodel {

struct CellResult {
  satalgo::Algorithm algo{};
  std::size_t tile_w = 0;  ///< 0 for untiled algorithms
  std::size_t n = 0;
  double model_ms = 0;
  std::optional<double> paper_ms;
  std::size_t kernel_calls = 0;
  std::size_t max_threads = 0;
  gpusim::Counters totals;
  std::size_t max_lookback_depth = 0;
};

/// Runs one Table III cell. `materialize` selects functional (real data,
/// validated elsewhere) vs count-only execution; both produce identical
/// counters and critical paths, so the model price is the same — count-only
/// is how the 16K²/32K² cells run on a small host.
inline CellResult run_cell(std::size_t n, satalgo::Algorithm algo,
                           std::size_t tile_w, bool materialize,
                           std::uint64_t seed = 1,
                           obs::Registry* metrics = nullptr,
                           obs::TraceSink* trace = nullptr) {
  gpusim::SimContext sim;
  sim.materialize = materialize;
  sim.metrics = metrics;
  sim.trace = trace;
  gpusim::GlobalBuffer<float> a(sim, n * n, "input");
  gpusim::GlobalBuffer<float> b(sim, n * n, "sat");

  satalgo::SatParams p;
  p.tile_w = tile_w == 0 ? 64 : tile_w;
  p.threads_per_block =
      static_cast<int>(std::min<std::size_t>(1024, p.tile_w * p.tile_w));
  p.seed = seed;

  const satalgo::RunResult run =
      satalgo::run_algorithm(sim, algo, a, b, n, n, p);

  CellResult cell;
  cell.algo = algo;
  cell.tile_w = satalgo::is_tiled(algo) ? p.tile_w : 0;
  cell.n = n;
  cell.model_ms = predict_run_ms(run, sim.cost);
  cell.paper_ms = paper_time_ms(satalgo::name_of(algo), cell.tile_w, n);
  cell.kernel_calls = run.kernel_calls();
  cell.max_threads = run.max_threads();
  cell.totals = run.totals();
  cell.max_lookback_depth = run.max_lookback_depth();
  return cell;
}

/// Sizes at which the functional (materialized) simulator is affordable on
/// a ~15 GiB host; larger sizes run count-only.
[[nodiscard]] inline bool functional_affordable(std::size_t n) {
  return n <= 4096;
}

}  // namespace satmodel
