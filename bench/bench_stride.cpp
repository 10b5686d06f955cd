// In-text claim (§V): "the row-wise prefix-sum computation in 2R2W performs
// stride access to the global memory [so] the running time of 2R2W is much
// larger" — quantified here by splitting 2R2W into its two kernels and
// reporting issued sectors, DRAM sectors, and modeled time per pass, next
// to the duplication baseline.
//
//   ./bench_stride [--n 8192]
#include <cstdio>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_stride",
                          "quantify 2R2W's strided-access penalty");
  args.add("n", "8192", "matrix side");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));

  gpusim::SimContext sim;
  sim.materialize = false;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");

  const auto dup = satalgo::run_algorithm(
      sim, satalgo::Algorithm::kDuplicate, a, b, n, n, {});
  const auto naive =
      satalgo::run_algorithm(sim, satalgo::Algorithm::k2R2W, a, b, n, n, {});

  satutil::TextTable t({"kernel", "issued sectors", "DRAM sectors",
                        "issued/DRAM", "modeled ms"});
  auto add = [&](const char* name, const gpusim::KernelReport& r) {
    t.add_row({name, satutil::format_count(r.counters.total_sectors()),
               satutil::format_count(r.counters.total_dram_sectors()),
               satutil::format_sig(double(r.counters.total_sectors()) /
                                       double(r.counters.total_dram_sectors()),
                                   3),
               satutil::format_sig(satmodel::predict_kernel_us(r, sim.cost) / 1e3,
                                   3)});
  };
  add("duplicate", dup.reports[0]);
  add("2r2w column pass (coalesced)", naive.reports[0]);
  add("2r2w row pass (strided)", naive.reports[1]);

  std::printf("2R2W strided-access penalty, n = %zu\n%s\n", n,
              t.render().c_str());

  const double col_ms =
      satmodel::predict_kernel_us(naive.reports[0], sim.cost) / 1e3;
  const double row_ms =
      satmodel::predict_kernel_us(naive.reports[1], sim.cost) / 1e3;
  std::printf("row pass / column pass: %.2fx  (paper: the strided pass "
              "dominates 2R2W)\n",
              row_ms / col_ms);
  // The strided pass issues one sector per element (8x the coalesced rate
  // for 4-byte floats) and must be the slower of the two.
  const bool ok =
      naive.reports[1].counters.total_sectors() >=
          7 * naive.reports[1].counters.total_dram_sectors() &&
      row_ms > 2.0 * col_ms;
  std::printf("claim %s\n", ok ? "holds" : "VIOLATED");
  return ok ? 0 : 1;
}
