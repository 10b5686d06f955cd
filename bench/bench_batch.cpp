// Batching ablation: the paper's small-matrix underutilization (§V — "at
// least 80 CUDA blocks should be invoked ... the overhead is large when the
// input matrix is small") and its fix. B small SATs, computed (a) as B
// back-to-back kernel launches vs (b) as ONE batched 1R1W-SKSS-LB launch.
// Per-SAT cost collapses toward the duplication bound as the batch fills
// the device.
//
//   ./bench_batch [--n 256] [--w 128]
#include <cstdio>
#include <vector>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_batch",
                          "one batched launch vs B sequential launches");
  args.add("n", "256", "image side").add("w", "128", "tile width");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));

  // Per-SAT time of one solo launch (the paper's setting).
  double solo_ms = 0, dup_ms = 0;
  {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    satalgo::SatParams p;
    p.tile_w = w;
    solo_ms = satmodel::predict_run_ms(
        satalgo::run_skss_lb(sim, a, b, n, n, p), sim.cost);
    dup_ms = satmodel::predict_run_ms(
        satalgo::run_duplicate(sim, a, b, n, n, p), sim.cost);
  }

  satutil::TextTable t({"batch B", "sequential (B launches)",
                        "batched (1 launch)", "per-SAT batched",
                        "overhead vs batched dup"});
  double best_overhead = 1e300;
  for (std::size_t batch : {1ul, 4ul, 16ul, 64ul, 256ul}) {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, batch * n * n, "in"),
        b(sim, batch * n * n, "out");
    satalgo::SatParams p;
    p.tile_w = w;
    const auto run = satalgo::run_skss_lb_batch(sim, a, b, batch, n, n, p);
    const double batched_ms = satmodel::predict_run_ms(run, sim.cost);
    const double per_sat = batched_ms / double(batch);
    // The fair lower bound: duplicating the whole batch in one launch.
    const auto dup_run = satalgo::run_duplicate(
        sim, a, b, batch * n * n / n, n, p);  // batch·n rows × n cols
    const double dup_batched_per_sat =
        satmodel::predict_run_ms(dup_run, sim.cost) / double(batch);
    const double ovh = satmodel::overhead_pct(per_sat, dup_batched_per_sat);
    best_overhead = std::min(best_overhead, ovh);
    t.add_row({std::to_string(batch),
               satutil::format_sig(solo_ms * double(batch), 4) + " ms",
               satutil::format_sig(batched_ms, 4) + " ms",
               satutil::format_sig(per_sat, 4) + " ms",
               satutil::format_pct(ovh)});
  }

  std::printf("batched 1R1W-SKSS-LB — %zux%zu images, W = %zu "
              "(solo per-SAT: %.4f ms, %.1f%% over duplication)\n%s\n",
              n, n, w, solo_ms,
              satmodel::overhead_pct(solo_ms, dup_ms), t.render().c_str());
  const double solo_overhead = satmodel::overhead_pct(solo_ms, dup_ms);
  std::printf("batching cuts the small-matrix SAT overhead from %.1f%% "
              "(solo, vs solo duplication) to %.1f%% (batched, vs batched "
              "duplication) — the launch amortization + saturation the "
              "paper's small sizes lack.\n",
              solo_overhead, best_overhead);
  return best_overhead < solo_overhead / 2 ? 0 : 1;
}
