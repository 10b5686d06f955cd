// Randomized differential testing: many random configurations (shape, tile
// width, algorithm, arrangement, dispatch order, device) — every algorithm
// must agree bit-exactly with the oracle and with every other algorithm on
// the same input. This is the broad-spectrum safety net behind the targeted
// suites.
#include <gtest/gtest.h>

#include <span>

#include "core/matrix.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "sat/registry.hpp"
#include "util/rng.hpp"

namespace {

using gpusim::GlobalBuffer;
using gpusim::SimContext;
using sat::Matrix;
using satalgo::Algorithm;
using satalgo::SatParams;

TEST(Differential, RandomConfigurationsAllAgree) {
  satutil::Rng rng(0xD1FFull);
  const auto algos = satalgo::all_sat_algorithms();
  const gpusim::SharedArrangement arrangements[] = {
      gpusim::SharedArrangement::Diagonal, gpusim::SharedArrangement::RowMajor};
  const gpusim::AssignmentOrder orders[] = {
      gpusim::AssignmentOrder::Natural, gpusim::AssignmentOrder::Reversed,
      gpusim::AssignmentOrder::Strided, gpusim::AssignmentOrder::Random};

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t w = 32u << rng.next_below(2);          // 32 or 64
    const std::size_t rows = w * (1 + rng.next_below(5));    // up to 5 tiles
    const std::size_t cols = w * (1 + rng.next_below(5));
    const auto input = Matrix<std::int32_t>::random(
        rows, cols, 1000 + trial, 0, 999);
    Matrix<std::int32_t> ref(rows, cols);
    sathost::sat_sequential<std::int32_t>(input.view(), ref.view());

    // Two random distinct algorithms per trial, random knobs each.
    const Algorithm a1 = algos[rng.next_below(algos.size())];
    const Algorithm a2 = algos[rng.next_below(algos.size())];
    for (Algorithm algo : {a1, a2}) {
      SimContext sim(rng.next_below(4) == 0 ? gpusim::DeviceConfig::tiny(2, 2)
                                            : gpusim::DeviceConfig::titan_v());
      GlobalBuffer<std::int32_t> a(sim, rows * cols, "in"),
          b(sim, rows * cols, "out");
      a.upload(std::span(input.data(), input.size()));
      SatParams p;
      p.tile_w = w;
      p.threads_per_block = 1 << (8 + rng.next_below(3));  // 256..1024
      p.threads_per_block = static_cast<int>(std::min<std::size_t>(
          p.threads_per_block, w * w));
      p.arrangement = arrangements[rng.next_below(2)];
      p.order = orders[rng.next_below(4)];
      p.seed = rng.next_u64();
      p.hybrid_r = 0.05 + 0.6 * rng.next_double();
      (void)satalgo::run_algorithm(sim, algo, a, b, rows, cols, p);
      for (std::size_t k = 0; k < rows * cols; ++k) {
        ASSERT_EQ(b[k], ref(k / cols, k % cols))
            << "trial " << trial << ", " << satalgo::name_of(algo) << ", "
            << rows << "x" << cols << ", W=" << w << ", threads "
            << p.threads_per_block << ", "
            << gpusim::to_string(p.order) << ", "
            << gpusim::to_string(p.arrangement);
      }
    }
  }
}

TEST(Differential, CountersAreDeterministicAcrossRepeatRuns) {
  // Same configuration twice → identical counters and critical paths
  // (the simulator must be fully deterministic).
  for (auto algo : {Algorithm::kSkssLb, Algorithm::kSkss, Algorithm::kHybrid}) {
    gpusim::Counters c[2];
    double cp[2];
    for (int rep = 0; rep < 2; ++rep) {
      SimContext sim;
      sim.materialize = false;
      GlobalBuffer<float> a(sim, 512 * 512, "in"), b(sim, 512 * 512, "out");
      SatParams p;
      p.tile_w = 64;
      p.order = gpusim::AssignmentOrder::Random;
      p.seed = 424242;
      const auto run = satalgo::run_algorithm(sim, algo, a, b, 512, 512, p);
      c[rep] = run.totals();
      cp[rep] = run.sum_critical_path_us();
    }
    EXPECT_EQ(c[0].element_reads, c[1].element_reads) << satalgo::name_of(algo);
    EXPECT_EQ(c[0].flag_polls, c[1].flag_polls) << satalgo::name_of(algo);
    EXPECT_DOUBLE_EQ(cp[0], cp[1]) << satalgo::name_of(algo);
  }
}

}  // namespace
