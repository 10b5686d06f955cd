// Quickstart: compute a summed area table with the paper's 1R1W-SKSS-LB
// algorithm on the simulated TITAN V and query region sums in O(1).
//
//   ./quickstart --n 1024 --w 128 --algorithm skss_lb
#include <cstdio>

#include "core/api.hpp"
#include "repro/repro.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

satalgo::Algorithm parse_algorithm(const std::string& name) {
  if (name == "2r2w") return satalgo::Algorithm::k2R2W;
  if (name == "2r2w_opt") return satalgo::Algorithm::k2R2WOptimal;
  if (name == "2r1w") return satalgo::Algorithm::k2R1W;
  if (name == "1r1w") return satalgo::Algorithm::k1R1W;
  if (name == "hybrid") return satalgo::Algorithm::kHybrid;
  if (name == "skss") return satalgo::Algorithm::kSkss;
  if (name == "skss_lb") return satalgo::Algorithm::kSkssLb;
  SAT_CHECK_MSG(false, "unknown algorithm '"
                           << name
                           << "' (try: 2r2w, 2r2w_opt, 2r1w, 1r1w, hybrid, "
                              "skss, skss_lb)");
  return satalgo::Algorithm::kSkssLb;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("quickstart",
                          "compute a SAT and query rectangle sums");
  args.add("n", "1024", "matrix side (multiple of the tile width)")
      .add("w", "128", "tile width W (32, 64 or 128)")
      .add("algorithm", "skss_lb", "SAT algorithm to run")
      .add("seed", "1", "workload seed");
  if (!args.parse(argc, argv)) return 1;

  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto input = sat::Matrix<float>::random(
      n, n, static_cast<std::uint64_t>(args.get_int("seed")), 0.0f, 1.0f);

  satrepro::Options opts;
  opts.algorithm = parse_algorithm(args.get("algorithm"));
  opts.params.tile_w = static_cast<std::size_t>(args.get_int("w"));

  std::printf("computing %zux%zu SAT with %s (W=%zu) on %s...\n", n, n,
              satalgo::name_of(opts.algorithm), opts.params.tile_w,
              opts.device.name.c_str());
  const auto result = satrepro::compute_sat(input, opts);

  if (auto err = sat::validate_sat(input, result.table)) {
    std::printf("VALIDATION FAILED: %s\n", err->c_str());
    return 1;
  }
  std::printf("validated against the CPU oracle.\n\n");

  const auto& s = result.stats;
  std::printf("kernel calls:        %zu\n", s.kernel_calls);
  std::printf("max threads:         %s\n",
              satutil::format_count(s.max_threads).c_str());
  std::printf("element reads:       %s  (n^2 = %s)\n",
              satutil::format_count(s.element_reads).c_str(),
              satutil::format_count(n * n).c_str());
  std::printf("element writes:      %s\n",
              satutil::format_count(s.element_writes).c_str());
  std::printf("modeled time:        %.4f ms (TITAN V)\n",
              s.critical_path_us / 1e3);

  // O(1) region-sum queries — what the SAT is for.
  std::printf("\nregion sums (O(1) each):\n");
  const sat::Rect rects[] = {{0, 0, n / 2, n / 2},
                             {n / 4, n / 4, 3 * n / 4, 3 * n / 4},
                             {n - 1, n - 1, n, n}};
  for (const auto& r : rects) {
    std::printf("  rows [%zu,%zu) x cols [%zu,%zu): sum = %.2f, mean = %.4f\n",
                r.r0, r.r1, r.c0, r.c1,
                double(sat::region_sum(result.table, r)),
                sat::region_mean(result.table, r));
  }
  return 0;
}
