// Tests for the batched 1R1W-SKSS-LB kernel and the compute_sat_batch entry
// points (host engines and satrepro).
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "repro/repro.hpp"
#include "sat/algo_skss_lb.hpp"

namespace {

using sat::Matrix;

TEST(Batch, EveryImageMatchesItsOracle) {
  std::vector<Matrix<std::int32_t>> inputs;
  for (std::uint64_t k = 0; k < 9; ++k)
    inputs.push_back(Matrix<std::int32_t>::random(96, 96, 100 + k, 0, 50));
  satrepro::Options opts;
  opts.params.tile_w = 32;
  const auto result = satrepro::compute_sat_batch(inputs, opts);
  ASSERT_EQ(result.tables.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_FALSE(sat::validate_sat(inputs[k], result.tables[k]).has_value())
        << "image " << k;
  }
  EXPECT_EQ(result.stats.kernel_calls, 1u);
}

TEST(Batch, SingleImageBatchEqualsPlainComputeSat) {
  const auto input = Matrix<std::int32_t>::random(128, 128, 5, 0, 99);
  satrepro::Options opts;
  opts.params.tile_w = 64;
  const auto batch = satrepro::compute_sat_batch(
      std::vector<Matrix<std::int32_t>>{input}, opts);
  const auto single = satrepro::compute_sat(input, opts);
  EXPECT_EQ(batch.tables[0], single.table);
  // One kernel: the batch of one reports what compute_sat reports, its
  // look-back depth and its label included.
  EXPECT_EQ(batch.stats.max_lookback_depth, single.stats.max_lookback_depth);
  EXPECT_EQ(batch.stats.algorithm, single.stats.algorithm);
  EXPECT_TRUE(batch.stats == single.stats);
}

TEST(Batch, RectangularImagesWithPadding) {
  std::vector<Matrix<std::int32_t>> inputs;
  for (std::uint64_t k = 0; k < 4; ++k)
    inputs.push_back(Matrix<std::int32_t>::random(50, 170, 7 + k, 0, 20));
  satrepro::Options opts;
  opts.params.tile_w = 32;
  const auto result = satrepro::compute_sat_batch(inputs, opts);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_FALSE(sat::validate_sat(inputs[k], result.tables[k]).has_value());
    EXPECT_EQ(result.tables[k].rows(), 50u);
    EXPECT_EQ(result.tables[k].cols(), 170u);
  }
}

TEST(Batch, CpuSkssLbBatchMatchesOracle) {
  // The host core pipelines the whole batch through one
  // sathost::sat_skss_lb_batch scheduler call (docs/host_engine.md §3).
  std::vector<Matrix<std::int32_t>> inputs;
  for (std::uint64_t k = 0; k < 5; ++k)
    inputs.push_back(Matrix<std::int32_t>::random(70, 130, 300 + k, 0, 50));
  sat::Options opts;
  opts.cpu_threads = 3;
  const auto result = sat::compute_sat_batch(inputs, opts);
  ASSERT_EQ(result.tables.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k)
    EXPECT_FALSE(sat::validate_sat(inputs[k], result.tables[k]).has_value())
        << "image " << k;
  EXPECT_EQ(result.stats.algorithm, "cpu-skss-lb-batch");
}

TEST(Batch, CpuBatchBitEqualsPerImageCompute) {
  // Integer elements: the batched engine must agree with single-image
  // compute_sat exactly, whatever the claim scheduler interleaves. The
  // images are wider than the one-worker tile width (2048 for i64), so the
  // batch (one worker's share per image) and the single-image calls (two
  // workers, W = 320) both split every image into several tiles.
  constexpr std::size_t kRows = 40, kCols = 2500;
  static_assert(sathost::auto_tile_w<std::int64_t>(kRows, kCols, 1) < kCols);
  static_assert(sathost::auto_tile_w<std::int64_t>(kRows, kCols, 2) < kCols);
  std::vector<Matrix<std::int64_t>> inputs;
  for (std::uint64_t k = 0; k < 4; ++k)
    inputs.push_back(
        Matrix<std::int64_t>::random(kRows, kCols, 400 + k, 0, 99));
  sat::Options opts;
  opts.cpu_threads = 2;
  const auto batch = sat::compute_sat_batch(inputs, opts);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto single = sat::compute_sat(inputs[k], opts);
    EXPECT_EQ(batch.tables[k], single.table) << "image " << k;
  }
}

TEST(Batch, RejectsMixedShapesAndEmptyBatch) {
  std::vector<Matrix<std::int32_t>> mixed = {
      Matrix<std::int32_t>(64, 64, 1), Matrix<std::int32_t>(64, 64, 1),
      Matrix<std::int32_t>(64, 96, 1)};
  EXPECT_THROW((void)satrepro::compute_sat_batch(mixed), satutil::CheckError);
  EXPECT_THROW(
      (void)satrepro::compute_sat_batch(std::vector<Matrix<float>>{}),
      satutil::CheckError);
  // The CPU batch entry points apply the same rule for every storage mode
  // and name the first image that breaks it.
  std::vector<Matrix<std::int32_t>> outs;
  std::vector<satutil::Span2d<const std::int32_t>> srcs;
  std::vector<satutil::Span2d<std::int32_t>> dsts;
  for (const auto& m : mixed) outs.emplace_back(m.rows(), m.cols());
  for (std::size_t k = 0; k < mixed.size(); ++k) {
    srcs.push_back(mixed[k].view());
    dsts.push_back(outs[k].view());
  }
  for (sat::Storage storage :
       {sat::Storage::kDense, sat::Storage::kKahanF32}) {
    sat::Options opts;
    opts.storage = storage;
    opts.cpu_threads = 2;
    EXPECT_THROW((void)sat::compute_sat_batch(mixed, opts),
                 satutil::CheckError);
    try {
      (void)sat::compute_sat_batch_into<std::int32_t>(srcs, dsts, opts);
      ADD_FAILURE() << "mixed shapes accepted by storage "
                    << static_cast<int>(storage);
    } catch (const satutil::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("image 2 is 64x96"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Batch, OneLaunchOneAtomicPerTile) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t batch = 8, n = 256, w = 64;
  gpusim::GlobalBuffer<float> a(sim, batch * n * n, "in"),
      b(sim, batch * n * n, "out");
  satalgo::SatParams p;
  p.tile_w = w;
  const auto run = satalgo::run_skss_lb_batch(sim, a, b, batch, n, n, p);
  const std::size_t tiles = batch * (n / w) * (n / w);
  EXPECT_EQ(run.kernel_calls(), 1u);
  EXPECT_EQ(run.totals().atomic_ops, tiles);
  EXPECT_EQ(run.totals().flag_writes, 6 * tiles);
  EXPECT_GE(run.totals().element_reads, batch * n * n);
  EXPECT_LE(run.totals().element_reads, batch * n * n + 8 * batch * n * n / w);
}

TEST(Batch, SurvivesAdversarialDispatchOnTinyDevice) {
  std::vector<Matrix<std::int32_t>> inputs;
  for (std::uint64_t k = 0; k < 3; ++k)
    inputs.push_back(Matrix<std::int32_t>::random(64, 64, 20 + k, 0, 9));
  satrepro::Options opts;
  opts.params.tile_w = 32;
  opts.params.order = gpusim::AssignmentOrder::Random;
  opts.params.seed = 77;
  opts.device = gpusim::DeviceConfig::tiny(1, 1);
  const auto result = satrepro::compute_sat_batch(inputs, opts);
  for (std::size_t k = 0; k < inputs.size(); ++k)
    EXPECT_FALSE(sat::validate_sat(inputs[k], result.tables[k]).has_value());
}

TEST(Batch, CriticalPathBeatsSequentialLaunches) {
  // The whole point: B batched small SATs finish faster than B solo runs.
  const std::size_t batch = 16, n = 256, w = 128;
  double solo_us = 0, batched_us = 0;
  {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    satalgo::SatParams p;
    p.tile_w = w;
    const auto run =
        satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, n, p);
    solo_us = run.sum_critical_path_us() * double(batch);
  }
  {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, batch * n * n, "in"),
        b(sim, batch * n * n, "out");
    satalgo::SatParams p;
    p.tile_w = w;
    batched_us = satalgo::run_skss_lb_batch(sim, a, b, batch, n, n, p)
                     .sum_critical_path_us();
  }
  EXPECT_LT(batched_us, solo_us / 2);
}

}  // namespace
