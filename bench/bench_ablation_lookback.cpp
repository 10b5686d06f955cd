// Ablation: what does the look-back (LB) technique buy over column-serial
// SKSS? Table I says parallelism (n²/m vs nW/m threads); this harness
// measures the consequences: concurrently usable blocks, per-block wait
// time, look-back walk depth, and the modeled time of both algorithms
// across sizes.
//
//   ./bench_ablation_lookback [--w 64]
#include <cstdio>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

struct Row {
  std::size_t grid = 0, concurrent = 0, depth = 0;
  double ms = 0, wait_frac = 0;
};

Row measure(satalgo::Algorithm algo, std::size_t n, std::size_t w) {
  gpusim::SimContext sim;
  sim.materialize = false;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = w;
  const auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
  const auto& r = run.reports[0];
  Row row;
  row.grid = r.grid_blocks;
  row.concurrent = r.max_concurrent_blocks;
  row.depth = r.max_lookback_depth;
  row.ms = satmodel::predict_run_ms(run, sim.cost);
  row.wait_frac = r.sum_block_wait_us /
                  (r.sum_block_busy_us + r.sum_block_wait_us + 1e-12);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_ablation_lookback",
                          "SKSS vs SKSS-LB: what the look-back buys");
  args.add("w", "128", "tile width");
  if (!args.parse(argc, argv)) return 1;
  const auto w = static_cast<std::size_t>(args.get_int("w"));

  satutil::TextTable t({"n", "algo", "grid blocks", "concurrent",
                        "max LB depth", "wait share", "modeled ms"});
  bool lb_wins_large = true;
  for (std::size_t n : {1024ul, 4096ul, 16384ul}) {
    const Row skss = measure(satalgo::Algorithm::kSkss, n, w);
    const Row lb = measure(satalgo::Algorithm::kSkssLb, n, w);
    t.add_row({satutil::format_size_label(n), "1R1W-SKSS",
               satutil::format_count(skss.grid),
               satutil::format_count(skss.concurrent), "-",
               satutil::format_pct(skss.wait_frac * 100),
               satutil::format_sig(skss.ms, 3)});
    t.add_row({satutil::format_size_label(n), "1R1W-SKSS-LB",
               satutil::format_count(lb.grid),
               satutil::format_count(lb.concurrent),
               satutil::format_count(lb.depth),
               satutil::format_pct(lb.wait_frac * 100),
               satutil::format_sig(lb.ms, 3)});
    t.add_separator();
    if (lb.ms > skss.ms) lb_wins_large = false;
    // LB's defining property: a block per tile instead of per column.
    if (lb.grid != skss.grid * skss.grid || skss.grid != n / w) return 2;
  }

  std::printf("Look-back ablation (W = %zu)\n%s\n", w, t.render().c_str());
  std::printf("1R1W-SKSS-LB %s 1R1W-SKSS at every size — the paper's "
              "\"runs faster than ... including 1R1W-SKSS\".\n",
              lb_wins_large ? "beats" : "DOES NOT BEAT");
  std::printf("Note the mechanism: LB exposes n^2/W^2 blocks (vs n/W) and "
              "keeps look-back walks short (bounded depth above), so its "
              "wait share stays low while SKSS pipelines columns.\n");
  return lb_wins_large ? 0 : 1;
}
