// The payoff experiment the paper's introduction promises: "the sum of any
// rectangular area can be computed in O(1) time" once the SAT exists. This
// harness prices, on the simulated device, answering q random rectangle
// queries (a) brute-force from the input vs (b) via four lookups into the
// SAT — including the SAT's own construction cost — and reports the
// break-even query count.
//
//   ./bench_queries [--n 2048] [--queries 100000]
#include <cstdio>

#include "model/predict.hpp"
#include "sat/query_kernel.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_queries",
                          "O(1) SAT queries vs O(area) brute force");
  args.add("n", "2048", "matrix side")
      .add("queries", "100000", "number of random rectangle queries");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto q = static_cast<std::size_t>(args.get_int("queries"));

  // Random rectangles, mean side ~n/4.
  satutil::Rng rng(42);
  std::vector<sat::Rect> queries(q);
  for (auto& r : queries) {
    const std::size_t h = 1 + rng.next_below(n / 2);
    const std::size_t w = 1 + rng.next_below(n / 2);
    const std::size_t r0 = rng.next_below(n - h + 1);
    const std::size_t c0 = rng.next_below(n - w + 1);
    r = {r0, c0, r0 + h, c0 + w};
  }

  gpusim::SimContext sim;
  sim.materialize = false;
  gpusim::GlobalBuffer<float> input(sim, n * n, "input");
  gpusim::GlobalBuffer<float> table(sim, n * n, "sat");

  // SAT construction (1R1W-SKSS-LB, W=128) + O(1) queries.
  satalgo::SatParams p;
  p.tile_w = 128;
  const auto build = satalgo::run_algorithm(
      sim, satalgo::Algorithm::kSkssLb, input, table, n, n, p);
  const double build_ms = satmodel::predict_run_ms(build, sim.cost);
  gpusim::KernelReport sat_q, brute_q;
  (void)satalgo::run_query_kernel(sim, table, n, n, queries, &sat_q);
  (void)satalgo::run_query_kernel_brute(sim, input, n, n, queries, &brute_q);
  const double sat_ms = satmodel::predict_kernel_us(sat_q, sim.cost) / 1e3;
  const double brute_ms = satmodel::predict_kernel_us(brute_q, sim.cost) / 1e3;

  satutil::TextTable t({"approach", "element reads", "modeled ms"});
  t.add_row({"brute force (O(area)/query)",
             satutil::format_count(brute_q.counters.element_reads),
             satutil::format_sig(brute_ms, 4)});
  t.add_row({"SAT build (1R1W-SKSS-LB)",
             satutil::format_count(build.totals().element_reads),
             satutil::format_sig(build_ms, 4)});
  t.add_row({"SAT queries (4 reads/query)",
             satutil::format_count(sat_q.counters.element_reads),
             satutil::format_sig(sat_ms, 4)});
  t.add_row({"SAT total (build + queries)", "",
             satutil::format_sig(build_ms + sat_ms, 4)});
  std::printf("%zu random rectangle queries on a %zux%zu matrix\n%s\n", q, n,
              n, t.render().c_str());

  const double speedup = brute_ms / (build_ms + sat_ms);
  // Break-even: queries where brute cost = build cost + query cost.
  const double per_brute = brute_ms / double(q);
  const double per_sat = sat_ms / double(q);
  const double breakeven = build_ms / (per_brute - per_sat);
  std::printf("end-to-end speedup at %zu queries: %.1fx; break-even at ~%.0f "
              "queries\n",
              q, speedup, breakeven);
  std::printf("per query: %s reads via SAT vs %s via brute force\n",
              satutil::format_count(sat_q.counters.element_reads / q).c_str(),
              satutil::format_count(brute_q.counters.element_reads / q).c_str());
  const bool ok = sat_q.counters.element_reads == 4 * q && speedup > 10.0;
  std::printf("O(1)-per-query claim %s\n", ok ? "holds" : "VIOLATED");
  return ok ? 0 : 1;
}
