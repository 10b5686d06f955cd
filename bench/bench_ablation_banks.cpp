// Ablation: the diagonal shared-memory arrangement (§II). Row-major tiles
// serialize column-direction warp accesses 32-fold; this harness measures
// bank-conflict cycles and the modeled end-to-end effect for each tile
// algorithm under both arrangements.
//
//   ./bench_ablation_banks [--n 4096] [--w 64]
#include <cstdio>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_ablation_banks",
                          "diagonal vs row-major shared-memory arrangement");
  args.add("n", "4096", "matrix side").add("w", "64", "tile width");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));

  satutil::TextTable t({"algorithm", "arrangement", "shared cycles",
                        "conflict cycles", "conflict share", "modeled ms"});
  bool diagonal_never_worse = true;
  for (auto algo : satalgo::tiled_sat_algorithms()) {
    double ms_by_arr[2] = {0, 0};
    for (auto arr : {gpusim::SharedArrangement::Diagonal,
                     gpusim::SharedArrangement::RowMajor}) {
      gpusim::SimContext sim;
      sim.materialize = false;
      gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
      satalgo::SatParams p;
      p.tile_w = w;
      p.arrangement = arr;
      const auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
      const auto c = run.totals();
      const double ms = satmodel::predict_run_ms(run, sim.cost);
      ms_by_arr[arr == gpusim::SharedArrangement::RowMajor] = ms;
      t.add_row({satalgo::name_of(algo), gpusim::to_string(arr),
                 satutil::format_count(c.shared_cycles),
                 satutil::format_count(c.shared_conflict_cycles),
                 satutil::format_pct(100.0 * double(c.shared_conflict_cycles) /
                                     double(c.shared_cycles +
                                            c.shared_conflict_cycles)),
                 satutil::format_sig(ms, 4)});
    }
    t.add_separator();
    if (ms_by_arr[0] > ms_by_arr[1] + 1e-12) diagonal_never_worse = false;
  }

  std::printf("Shared-memory arrangement ablation — n = %zu, W = %zu\n%s\n", n,
              w, t.render().c_str());
  std::printf("diagonal arrangement is %s for every tile algorithm "
              "(§II: conflict-free row AND column access).\n",
              diagonal_never_worse ? "never slower" : "SLOWER SOMEWHERE");
  return diagonal_never_worse ? 0 : 1;
}
