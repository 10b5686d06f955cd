// Extra baseline: the PRAM-style recursive-doubling SAT of the paper's
// reference [9]. Maximal parallelism, all-coalesced access — and Θ(n² log n)
// traffic. This harness shows why nobody in Table III computes SATs that
// way: the tile algorithms' Θ(n²) traffic wins at every size, increasingly
// so as n grows.
//
//   ./bench_logstep
#include <cstdio>

#include "model/predict.hpp"
#include "sat/algo_logstep.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_logstep",
                          "recursive-doubling [9] vs the tile algorithms");
  if (!args.parse(argc, argv)) return 1;

  satutil::TextTable t({"n", "log-step kernels", "log-step reads/n^2",
                        "log-step ms", "SKSS-LB ms", "2R2W ms", "ratio vs LB"});
  bool lb_always_wins = true;
  double prev_ratio = 0;
  bool ratio_grows = true;
  for (std::size_t n : {512ul, 2048ul, 8192ul}) {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    satalgo::SatParams p;
    p.tile_w = 128;
    const auto ls = satalgo::run_log_step(sim, a, b, n, n, p);
    const auto lb = satalgo::run_algorithm(
        sim, satalgo::Algorithm::kSkssLb, a, b, n, n, p);
    const auto naive =
        satalgo::run_algorithm(sim, satalgo::Algorithm::k2R2W, a, b, n, n, p);
    const double ls_ms = satmodel::predict_run_ms(ls, sim.cost);
    const double lb_ms = satmodel::predict_run_ms(lb, sim.cost);
    const double nv_ms = satmodel::predict_run_ms(naive, sim.cost);
    const double ratio = ls_ms / lb_ms;
    t.add_row({satutil::format_size_label(n),
               std::to_string(ls.kernel_calls()),
               satutil::format_sig(
                   double(ls.totals().element_reads) / double(n) / double(n),
                   4),
               satutil::format_sig(ls_ms, 4), satutil::format_sig(lb_ms, 4),
               satutil::format_sig(nv_ms, 4), satutil::format_sig(ratio, 3)});
    if (ls_ms < lb_ms) lb_always_wins = false;
    if (ratio < prev_ratio) ratio_grows = false;
    prev_ratio = ratio;
  }

  std::printf("recursive-doubling [9] baseline (coalesced, max parallelism, "
              "Theta(n^2 log n) traffic)\n%s\n",
              t.render().c_str());
  std::printf("1R1W-SKSS-LB beats log-step at every size: %s; the gap grows "
              "with n (the log factor): %s\n",
              lb_always_wins ? "yes" : "NO", ratio_grows ? "yes" : "NO");
  std::printf("(this is [9]'s point: on memory machines, work-efficiency in "
              "global traffic beats step-efficiency)\n");
  return (lb_always_wins && ratio_grows) ? 0 : 1;
}
