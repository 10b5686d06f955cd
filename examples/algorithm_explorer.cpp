// Algorithm explorer: run every SAT algorithm of the paper on the same
// matrix, validate each against the CPU oracle, and print the side-by-side
// statistics Table I/III are built from — a guided tour of the trade-offs.
//
//   ./algorithm_explorer [--n 1024] [--w 64] [--order natural]
#include <cstdio>
#include <string>

#include "core/api.hpp"
#include "model/predict.hpp"
#include "repro/repro.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

gpusim::AssignmentOrder parse_order(const std::string& s) {
  if (s == "natural") return gpusim::AssignmentOrder::Natural;
  if (s == "reversed") return gpusim::AssignmentOrder::Reversed;
  if (s == "strided") return gpusim::AssignmentOrder::Strided;
  if (s == "random") return gpusim::AssignmentOrder::Random;
  SAT_CHECK_MSG(false, "unknown order '" << s
                                         << "' (natural|reversed|strided|random)");
  return gpusim::AssignmentOrder::Natural;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("algorithm_explorer",
                          "run and compare every SAT algorithm of the paper");
  args.add("n", "1024", "matrix side (multiple of w)")
      .add("w", "64", "tile width")
      .add("order", "natural", "block dispatch order")
      .add("seed", "3", "workload seed");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto w = static_cast<std::size_t>(args.get_int("w"));

  const auto input = sat::Matrix<std::int32_t>::random(
      n, n, static_cast<std::uint64_t>(args.get_int("seed")), 0, 255);

  satutil::TextTable t({"algorithm", "kernels", "max threads", "reads/n^2",
                        "writes/n^2", "atomics", "flag traffic", "modeled ms",
                        "valid"});
  const double n2 = double(n) * double(n);

  bool all_valid = true;
  for (auto algo : satalgo::all_sat_algorithms()) {
    satrepro::Options opts;
    opts.algorithm = algo;
    opts.params.tile_w = w;
    opts.params.order = parse_order(args.get("order"));
    const auto result = satrepro::compute_sat(input, opts);
    const auto err = sat::validate_sat(input, result.table);
    all_valid &= !err.has_value();
    const auto& s = result.stats;
    t.add_row({s.algorithm, std::to_string(s.kernel_calls),
               satutil::format_count(s.max_threads),
               satutil::format_sig(double(s.element_reads) / n2, 4),
               satutil::format_sig(double(s.element_writes) / n2, 4),
               satutil::format_count(s.atomic_ops),
               satutil::format_count(s.flag_reads + s.flag_writes),
               satutil::format_sig(s.critical_path_us / 1e3, 4),
               err ? "NO" : "yes"});
  }

  std::printf("all SAT algorithms on one %zux%zu int32 matrix (W = %zu, "
              "dispatch %s)\n%s\n",
              n, n, w, args.get("order").c_str(), t.render().c_str());
  std::printf("every algorithm %s the CPU oracle bit-exactly.\n",
              all_valid ? "matches" : "FAILS AGAINST");
  std::printf("\nreading guide: 1R1W-SKSS-LB is the only row with 1 kernel, "
              "n^2-scale threads AND ~1 read + ~1 write per element — "
              "the combination Table I calls out as this paper's "
              "contribution.\n");
  return all_valid ? 0 : 1;
}
