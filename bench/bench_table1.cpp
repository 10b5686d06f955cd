// Regenerates Table I: kernel calls, max threads, parallelism class, and
// global-memory reads/writes for every algorithm — printing the paper's
// closed forms next to the values *measured* from the simulator and flagging
// any disagreement beyond the stated O(n²/W) terms.
//
//   ./bench_table1 [--n 2048] [--w 64]
#include <cstdio>
#include <cstdlib>

#include "gpusim/gpusim.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

struct MeasuredRow {
  satalgo::RunResult run;
  satalgo::TheoryRow theory;
};

void print_table(std::size_t n, std::size_t w, std::size_t m) {
  satutil::TextTable table({"algorithm", "kernels", "kernels(paper)",
                            "threads", "threads(paper)", "parallelism",
                            "reads/n^2", "writes/n^2", "ok"});
  const double n2 = static_cast<double>(n) * static_cast<double>(n);

  std::vector<satalgo::Algorithm> algos = {satalgo::Algorithm::kDuplicate};
  for (auto a : satalgo::all_sat_algorithms()) algos.push_back(a);

  bool all_ok = true;
  for (auto algo : algos) {
    gpusim::SimContext sim;
    sim.materialize = false;  // counters only
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    satalgo::SatParams p;
    p.tile_w = w;
    p.threads_per_block =
        static_cast<int>(std::min<std::size_t>(1024, w * w));
    const auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
    const auto theory = satalgo::theory_row(algo, n, w, m);
    const auto totals = run.totals();

    const double reads_ratio = double(totals.element_reads) / n2;
    const double writes_ratio = double(totals.element_writes) / n2;
    // Agreement: measured kernel calls match the closed form exactly (±1 for
    // the hybrid's rounding), and the n² coefficients match within the
    // stated lower-order slack (O(n²/W) for the tile algorithms, the scan
    // kernels' O(n²/strip) aux for 2R2W-optimal). The threads column is
    // printed for comparison but not gated: the scan kernels clamp items-
    // per-thread on short rows, which only changes the constant.
    const double slack = std::max(16.0 / double(w), 0.13);
    bool ok = std::abs(double(run.kernel_calls()) - theory.kernel_calls) <=
                  1.0 + 1e-9 &&
              reads_ratio >= theory.reads_leading - 1e-9 &&
              reads_ratio <= theory.reads_leading + slack &&
              writes_ratio >= theory.writes_leading - 1e-9 &&
              writes_ratio <= theory.writes_leading + slack;
    all_ok &= ok;

    table.add_row({theory.name, std::to_string(run.kernel_calls()),
                   satutil::format_sig(theory.kernel_calls, 4),
                   satutil::format_count(run.max_threads()),
                   satutil::format_count(std::uint64_t(theory.threads)),
                   satalgo::to_string(theory.parallelism),
                   satutil::format_sig(reads_ratio, 4),
                   satutil::format_sig(writes_ratio, 4), ok ? "yes" : "NO"});
  }

  std::printf("Table I reproduction — n=%zu, W=%zu, m=%zu (threads=W^2/m)\n",
              n, w, m);
  std::fputs(table.render().c_str(), stdout);
  std::printf("paper columns hold%s: reads/writes within +O(n^2/W), kernel "
              "calls exact\n\n",
              all_ok ? "" : " EXCEPT FLAGGED ROWS");
  if (!all_ok) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_table1", "regenerate Table I from counters");
  args.add("n", "2048", "matrix side").add("w", "64", "tile width");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));
  const std::size_t m = w * w / std::min<std::size_t>(1024, w * w);
  print_table(n, w, m);

  // A second shape to show the formulas track their parameters.
  if (n >= 1024) print_table(n / 2, w == 32 ? 64 : 32, m);
  return 0;
}
