// Ablation: the (1+r)R1W hybrid's r parameter ([14], Figure 8). r trades
// extra reads (the 2R1W-style regions re-read r·n² elements) against kernel
// launches and the low parallelism of 1R1W's corner diagonals. The paper
// "chooses the best value of r by experiment" — this harness sweeps it.
//
//   ./bench_ablation_hybrid_r [--w 64]
#include <cstdio>
#include <vector>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_ablation_hybrid_r",
                          "sweep the (1+r)R1W hybrid parameter");
  args.add("w", "64", "tile width");
  if (!args.parse(argc, argv)) return 1;
  const auto w = static_cast<std::size_t>(args.get_int("w"));

  const std::vector<double> rs = {0.01, 0.04, 0.09, 0.16, 0.25, 0.36, 0.49,
                                  0.64, 0.81};
  std::vector<std::string> header = {"n", "1R1W (r=0)"};
  for (double r : rs) header.push_back("r=" + satutil::format_sig(r, 2));
  satutil::TextTable t(header);

  bool some_r_beats_pure = false;
  for (std::size_t n : {2048ul, 8192ul, 32768ul}) {
    std::vector<std::string> row = {satutil::format_size_label(n)};
    gpusim::SimContext sim0;
    sim0.materialize = false;
    {
      gpusim::GlobalBuffer<float> a(sim0, n * n, "in"), b(sim0, n * n, "out");
      satalgo::SatParams p;
      p.tile_w = w;
      const auto pure = satalgo::run_algorithm(
          sim0, satalgo::Algorithm::k1R1W, a, b, n, n, p);
      row.push_back(satutil::format_sig(
          satmodel::predict_run_ms(pure, sim0.cost), 4));
    }
    const double pure_ms = std::stod(row.back());
    double best = 1e300;
    for (double r : rs) {
      gpusim::SimContext sim;
      sim.materialize = false;
      gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
      satalgo::SatParams p;
      p.tile_w = w;
      p.hybrid_r = r;
      const auto run = satalgo::run_algorithm(
          sim, satalgo::Algorithm::kHybrid, a, b, n, n, p);
      const double ms = satmodel::predict_run_ms(run, sim.cost);
      best = std::min(best, ms);
      row.push_back(satutil::format_sig(ms, 4));
    }
    if (best < pure_ms) some_r_beats_pure = true;
    t.add_row(row);
  }

  std::printf("(1+r)R1W parameter sweep — modeled ms, W = %zu\n%s\n", w,
              t.render().c_str());
  std::printf("an intermediate r %s pure 1R1W — the hybrid's reason to "
              "exist ([14]).\n",
              some_r_beats_pure ? "beats" : "NEVER BEATS");
  return some_r_beats_pure ? 0 : 1;
}
