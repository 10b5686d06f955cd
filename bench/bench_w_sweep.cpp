// The paper's tuning experiment: "We can select the values of W and m that
// maximize the performance by experiment" (§I-B) — a full sweep of tile
// width W and threads-per-block (m = W²/threads) for 1R1W-SKSS-LB, printing
// the modeled time per configuration and the winner per size.
//
//   ./bench_w_sweep [--algorithm skss_lb]
#include <cstdio>
#include <string>
#include <vector>

#include "model/predict.hpp"
#include "sat/registry.hpp"
#include "util/argparse.hpp"
#include "util/format.hpp"

namespace {

satalgo::Algorithm parse_algo(const std::string& s) {
  if (s == "skss") return satalgo::Algorithm::kSkss;
  if (s == "2r1w") return satalgo::Algorithm::k2R1W;
  if (s == "1r1w") return satalgo::Algorithm::k1R1W;
  return satalgo::Algorithm::kSkssLb;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("bench_w_sweep",
                          "sweep tile width W and block size for a tile "
                          "algorithm");
  args.add("algorithm", "skss_lb", "skss_lb | skss | 2r1w | 1r1w");
  if (!args.parse(argc, argv)) return 1;
  const auto algo = parse_algo(args.get("algorithm"));

  const std::vector<std::size_t> sizes = {1024, 4096, 16384};
  const std::vector<std::size_t> ws = {32, 64, 128};
  const std::vector<int> threads = {128, 256, 512, 1024};

  std::vector<std::string> header = {"W", "threads", "m"};
  for (auto n : sizes) header.push_back(satutil::format_size_label(n) + "^2");
  satutil::TextTable t(header);

  std::vector<double> best(sizes.size(), 1e300);
  std::vector<std::string> best_cfg(sizes.size());
  for (std::size_t w : ws) {
    for (int tpb : threads) {
      if (static_cast<std::size_t>(tpb) > w * w) continue;
      std::vector<std::string> row = {
          std::to_string(w), std::to_string(tpb),
          std::to_string(w * w / static_cast<std::size_t>(tpb))};
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        gpusim::SimContext sim;
        sim.materialize = false;
        const std::size_t n = sizes[k];
        gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
        satalgo::SatParams p;
        p.tile_w = w;
        p.threads_per_block = tpb;
        const auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
        const double ms = satmodel::predict_run_ms(run, sim.cost);
        row.push_back(satutil::format_sig(ms, 4));
        if (ms < best[k]) {
          best[k] = ms;
          best_cfg[k] = "W=" + std::to_string(w) + ", " +
                        std::to_string(tpb) + " threads";
        }
      }
      t.add_row(row);
    }
    t.add_separator();
  }

  std::printf("W/m sweep — %s, modeled ms\n%s\n", satalgo::name_of(algo),
              t.render().c_str());
  bool big_tiles_win_large = true;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    std::printf("best at %s^2: %s (%.4g ms)\n",
                satutil::format_size_label(sizes[k]).c_str(),
                best_cfg[k].c_str(), best[k]);
    if (sizes[k] >= 4096 && best_cfg[k].find("W=32,") != std::string::npos)
      big_tiles_win_large = false;
  }
  std::printf("\npaper's W observation holds%s: larger tiles (W=64/128) win "
              "at large sizes — bigger tiles amortize the O(n^2/W) aux "
              "traffic.\n(Block-size sensitivity is weaker in the model than "
              "on hardware: per-block latency hiding from extra warps is "
              "folded into the bandwidth shares, so small blocks look "
              "cheaper than they are; the paper fixes 1024 threads.)\n",
              big_tiles_win_large ? "" : " PARTIALLY");
  return big_tiles_win_large ? 0 : 1;
}
