// Stress tests of the single-kernel soft-synchronization algorithms under
// hostile conditions: tiny devices, random dispatch, many seeds, and
// degenerate grids — the situations §IV's design decisions exist for.
#include <gtest/gtest.h>

#include <span>

#include "core/matrix.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "sat/registry.hpp"

namespace {

using gpusim::AssignmentOrder;
using gpusim::DeviceConfig;
using gpusim::GlobalBuffer;
using gpusim::SimContext;
using sat::Matrix;
using satalgo::Algorithm;
using satalgo::SatParams;

Matrix<std::int32_t> run_and_fetch(SimContext& sim, Algorithm algo,
                                   const Matrix<std::int32_t>& input,
                                   const SatParams& p) {
  const std::size_t n = input.rows();
  GlobalBuffer<std::int32_t> a(sim, n * n, "in"), b(sim, n * n, "out");
  a.upload(std::span(input.data(), input.size()));
  (void)satalgo::run_algorithm(sim, algo, a, b, n, n, p);
  Matrix<std::int32_t> out(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out(i, j) = b[i * n + j];
  return out;
}

class RandomDispatchSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDispatchSeeds, SkssLbCorrectOnMinimalDevice) {
  // 1 SM × 1 block resident: the most serialization-prone device possible.
  const std::size_t n = 160;
  const auto input = Matrix<std::int32_t>::random(n, n, GetParam(), 0, 9);
  Matrix<std::int32_t> ref(n, n);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());

  SimContext sim(DeviceConfig::tiny(1, 1));
  SatParams p;
  p.tile_w = 32;
  p.order = AssignmentOrder::Random;
  p.seed = GetParam();
  EXPECT_EQ(run_and_fetch(sim, Algorithm::kSkssLb, input, p), ref);
}

TEST_P(RandomDispatchSeeds, SkssCorrectOnMinimalDevice) {
  const std::size_t n = 160;
  const auto input = Matrix<std::int32_t>::random(n, n, GetParam() + 77, 0, 9);
  Matrix<std::int32_t> ref(n, n);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());

  SimContext sim(DeviceConfig::tiny(1, 1));
  SatParams p;
  p.tile_w = 32;
  p.order = AssignmentOrder::Random;
  p.seed = GetParam();
  EXPECT_EQ(run_and_fetch(sim, Algorithm::kSkss, input, p), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDispatchSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(LookbackStress, SingleTileGrid) {
  const std::size_t n = 32;
  const auto input = Matrix<std::int32_t>::random(n, n, 4, 0, 9);
  Matrix<std::int32_t> ref(n, n);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());
  SimContext sim(DeviceConfig::tiny(1, 1));
  SatParams p;
  p.tile_w = 32;
  EXPECT_EQ(run_and_fetch(sim, Algorithm::kSkssLb, input, p), ref);
}

TEST(LookbackStress, SingleRowAndColumnOfTiles) {
  // g×1 and 1×g tile strips exercise the degenerate look-back directions.
  // (The grid is square; a 32×256 padded region comes from the core API, so
  // here the equivalent: n=256, where row/column walks span the whole grid.)
  const std::size_t n = 256;
  const auto input = Matrix<std::int32_t>::random(n, n, 6, 0, 9);
  Matrix<std::int32_t> ref(n, n);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());
  SimContext sim(DeviceConfig::tiny(1, 2));
  SatParams p;
  p.tile_w = 128;  // 2×2 tiles: every look-back is at the border case
  EXPECT_EQ(run_and_fetch(sim, Algorithm::kSkssLb, input, p), ref);
}

TEST(LookbackStress, LookbackDepthGrowsUnderSerializedDispatch) {
  // With one resident block and strided admission, a freshly admitted tile
  // often finds predecessors that only published local sums → deeper walks.
  SimContext sim(DeviceConfig::tiny(1, 1));
  sim.materialize = false;
  const std::size_t n = 512;
  GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  SatParams p;
  p.tile_w = 32;
  const auto run =
      satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p);
  EXPECT_GE(run.max_lookback_depth(), 1u);
  EXPECT_LE(run.max_lookback_depth(), n / 32);
}

TEST(LookbackStress, FlagPublishCountsAreExact) {
  // Every tile publishes R∈{1,2,3,4} and C∈{1,2}: exactly 6 flag writes per
  // tile, under any dispatch order.
  for (auto order : {AssignmentOrder::Natural, AssignmentOrder::Random}) {
    SimContext sim;
    sim.materialize = false;
    const std::size_t n = 1024, w = 64;
    GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    SatParams p;
    p.tile_w = w;
    p.order = order;
    p.seed = 9;
    const auto t =
        satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p).totals();
    EXPECT_EQ(t.flag_writes, 6 * (n / w) * (n / w));
  }
}

TEST(LookbackStress, WaitDiscoveryLatencyShowsUpInWaits) {
  // On a 1-slot device the serialized blocks find everything published
  // before them (simulated time of publishes precedes their progress), so
  // aggregate wait stays bounded; on the full device the early diagonal
  // waves genuinely wait. Both must complete with identical counters.
  gpusim::Counters tiny_c, full_c;
  {
    SimContext sim(DeviceConfig::tiny(1, 1));
    sim.materialize = false;
    const std::size_t n = 256;
    GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    SatParams p;
    p.tile_w = 32;
    tiny_c =
        satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p).totals();
  }
  {
    SimContext sim;
    sim.materialize = false;
    const std::size_t n = 256;
    GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    SatParams p;
    p.tile_w = 32;
    full_c =
        satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p).totals();
  }
  // Device size must not change the algorithm's memory traffic.
  EXPECT_EQ(tiny_c.element_reads, full_c.element_reads);
  EXPECT_EQ(tiny_c.element_writes, full_c.element_writes);
  EXPECT_EQ(tiny_c.flag_writes, full_c.flag_writes);
}

TEST(LookbackStress, ScanKernelsSurviveRandomDispatchManySeeds) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    SimContext sim(DeviceConfig::tiny(2, 2));
    const std::size_t rows = 8, cols = 500;
    GlobalBuffer<std::int64_t> src(sim, rows * cols, "s"),
        dst(sim, rows * cols, "d");
    std::vector<std::int64_t> in(rows * cols);
    satutil::Rng rng(seed);
    for (auto& x : in) x = std::int64_t(rng.next_below(50));
    src.upload(in);
    satscan::RowScanTuning tune;
    tune.threads_per_block = 64;
    tune.items_per_thread = 1;
    tune.order = AssignmentOrder::Random;
    tune.seed = seed;
    satscan::row_wise_inclusive_scan(sim, src, dst, rows, cols, tune);
    for (std::size_t r = 0; r < rows; ++r) {
      std::int64_t run = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        run += in[r * cols + c];
        ASSERT_EQ(dst[r * cols + c], run) << "seed " << seed;
      }
    }
  }
}

}  // namespace
