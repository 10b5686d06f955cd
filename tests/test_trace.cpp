// Tests for per-block trace recording and its invariants.
#include <gtest/gtest.h>

#include <set>

#include "gpusim/gpusim.hpp"
#include "sat/registry.hpp"

namespace {

using namespace gpusim;

TEST(Trace, DisabledByDefault) {
  SimContext sim(DeviceConfig::tiny());
  LaunchConfig cfg{.name = "t", .grid_blocks = 4, .threads_per_block = 32};
  auto rep = launch_kernel(sim, cfg, [](BlockCtx&, std::size_t) -> BlockTask {
    co_return;
  });
  EXPECT_TRUE(rep.trace.empty());
}

TEST(Trace, RecordsEveryBlockOnce) {
  SimContext sim(DeviceConfig::tiny());
  LaunchConfig cfg{.name = "t", .grid_blocks = 37, .threads_per_block = 32,
                   .record_trace = true};
  auto rep = launch_kernel(sim, cfg, [](BlockCtx& ctx, std::size_t) -> BlockTask {
    ctx.read_contiguous(256, 4);
    co_return;
  });
  ASSERT_EQ(rep.trace.size(), 37u);
  std::set<std::size_t> blocks;
  for (const auto& t : rep.trace) {
    EXPECT_TRUE(blocks.insert(t.logical_block).second);
    EXPECT_GE(t.finish_us, t.start_us);
    EXPECT_GE(t.wait_us, 0.0);
    EXPECT_LE(t.finish_us, rep.critical_path_us + 1e-9);
  }
}

TEST(Trace, WaitTimeShowsUpInTheWaiter) {
  SimContext sim(DeviceConfig::tiny());
  StatusArray flags("f", 1);
  LaunchConfig cfg{.name = "t", .grid_blocks = 2, .threads_per_block = 32,
                   .record_trace = true};
  auto rep = launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t b) -> BlockTask {
    if (b == 1) {
      ctx.read_contiguous(1 << 16, 4);
      ctx.flag_publish(flags, 0, 1);
    } else {
      co_await ctx.wait_flag_at_least(flags, 0, 1);
    }
    co_return;
  });
  double wait0 = -1, wait1 = -1;
  for (const auto& t : rep.trace)
    (t.logical_block == 0 ? wait0 : wait1) = t.wait_us;
  EXPECT_GT(wait0, 0.0);
  EXPECT_DOUBLE_EQ(wait1, 0.0);
}

TEST(Trace, ResidencyStaircaseVisibleInStartTimes) {
  // 8 equal blocks on 4 slots: starts form two waves.
  SimContext sim(DeviceConfig::tiny(2, 2));
  LaunchConfig cfg{.name = "t", .grid_blocks = 8, .threads_per_block = 1024,
                   .record_trace = true};
  auto rep = launch_kernel(sim, cfg, [](BlockCtx& ctx, std::size_t) -> BlockTask {
    ctx.read_contiguous(100000, 4);
    co_return;
  });
  std::size_t at_zero = 0, later = 0;
  for (const auto& t : rep.trace) (t.start_us == 0.0 ? at_zero : later) += 1;
  EXPECT_EQ(at_zero, 4u);
  EXPECT_EQ(later, 4u);
}

TEST(Trace, AvailableThroughSatParams) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 512;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 64;
  p.record_trace = true;
  const auto run =
      satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, n, p);
  EXPECT_EQ(run.reports[0].trace.size(), (n / 64) * (n / 64));
  // Sum of per-block wait in the trace equals the report aggregate.
  double wait = 0;
  for (const auto& t : run.reports[0].trace) wait += t.wait_us;
  EXPECT_NEAR(wait, run.reports[0].sum_block_wait_us, 1e-6);
}

TEST(TraceAnalysis, OccupancyTimelineCountsActiveBlocks) {
  std::vector<BlockTraceEntry> trace = {
      {0, 0.0, 10.0, 0.0}, {1, 0.0, 6.0, 0.0}, {2, 6.0, 12.0, 0.0}};
  const auto tl = occupancy_timeline(trace);
  ASSERT_FALSE(tl.empty());
  // At t=0 two blocks start; at t=6 one finishes and one starts (still 2);
  // at t=10 one finishes; at t=12 zero remain.
  EXPECT_EQ(tl.front().t_us, 0.0);
  EXPECT_EQ(tl.front().active, 2u);
  EXPECT_EQ(tl.back().active, 0u);
  EXPECT_EQ(tl.back().t_us, 12.0);
}

TEST(TraceAnalysis, MeanActiveBlocksIsTimeWeighted) {
  // One block busy [0,10), another [0,5): mean = (10+5)/10 = 1.5.
  std::vector<BlockTraceEntry> trace = {{0, 0.0, 10.0, 0.0},
                                        {1, 0.0, 5.0, 0.0}};
  EXPECT_NEAR(mean_active_blocks(trace), 1.5, 1e-9);
  EXPECT_EQ(mean_active_blocks({}), 0.0);
}

TEST(TraceAnalysis, WaitShare) {
  std::vector<BlockTraceEntry> trace = {{0, 0.0, 10.0, 4.0},
                                        {1, 0.0, 10.0, 0.0}};
  EXPECT_NEAR(wait_share(trace), 0.2, 1e-9);
}

TEST(TraceAnalysis, SparklineShapes) {
  std::vector<BlockTraceEntry> trace = {{0, 0.0, 10.0, 0.0},
                                        {1, 0.0, 10.0, 0.0}};
  const auto line = occupancy_sparkline(trace, 20);
  EXPECT_EQ(line.size(), 20u);
  EXPECT_EQ(line[5], '@');  // flat full occupancy
  EXPECT_EQ(occupancy_sparkline({}, 8), std::string(8, ' '));
}

TEST(TraceAnalysis, EmptyTraceYieldsEmptyAnalysis) {
  EXPECT_TRUE(occupancy_timeline({}).empty());
  EXPECT_EQ(mean_active_blocks({}), 0.0);
  EXPECT_EQ(wait_share({}), 0.0);
}

TEST(TraceAnalysis, SimultaneousStartAndFinishCoalesceToOneSample) {
  // Block 1 starts at the instant block 0 finishes: one sample at t=5 with
  // the net activity (1), not a finish-then-start pair.
  std::vector<BlockTraceEntry> trace = {{0, 0.0, 5.0, 0.0},
                                        {1, 5.0, 10.0, 0.0}};
  const auto tl = occupancy_timeline(trace);
  ASSERT_EQ(tl.size(), 3u);
  for (std::size_t k = 1; k < tl.size(); ++k)
    EXPECT_GT(tl[k].t_us, tl[k - 1].t_us);  // strictly increasing times
  EXPECT_EQ(tl[0].active, 1u);
  EXPECT_EQ(tl[1].active, 1u);
  EXPECT_EQ(tl[2].active, 0u);
  EXPECT_NEAR(mean_active_blocks(trace), 1.0, 1e-9);
}

TEST(TraceAnalysis, ZeroDurationTraceHasZeroWaitShare) {
  // All blocks start and finish at the same instant: no time was spent at
  // all, so the wait share is 0, not 0/0.
  std::vector<BlockTraceEntry> trace = {{0, 3.0, 3.0, 0.0},
                                        {1, 3.0, 3.0, 0.0}};
  EXPECT_EQ(wait_share(trace), 0.0);
  EXPECT_EQ(mean_active_blocks(trace), 0.0);
}

TEST(TraceAnalysis, RealKernelOccupancyRespectsResidency) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 2048;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 64;
  p.record_trace = true;
  const auto run =
      satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, n, p);
  const auto& rep = run.reports[0];
  std::size_t peak = 0;
  for (const auto& s : occupancy_timeline(rep.trace))
    peak = std::max(peak, s.active);
  EXPECT_LE(peak, rep.max_concurrent_blocks);
  EXPECT_GT(mean_active_blocks(rep.trace),
            0.5 * double(rep.max_concurrent_blocks));
}

}  // namespace
