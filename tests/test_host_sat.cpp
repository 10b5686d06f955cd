// Tests for the host (CPU) SAT implementations and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"

namespace {

using sat::Matrix;

Matrix<std::int64_t> brute_force_sat(const Matrix<std::int64_t>& a) {
  Matrix<std::int64_t> b(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      std::int64_t s = 0;
      for (std::size_t ii = 0; ii <= i; ++ii)
        for (std::size_t jj = 0; jj <= j; ++jj) s += a(ii, jj);
      b(i, j) = s;
    }
  return b;
}

TEST(HostSat, SequentialMatchesBruteForce) {
  const auto a = Matrix<std::int64_t>::random(17, 23, 1, 0, 9);
  Matrix<std::int64_t> b(17, 23);
  sathost::sat_sequential<std::int64_t>(a.view(), b.view());
  EXPECT_EQ(b, brute_force_sat(a));
}

TEST(HostSat, TwoPassEqualsSinglePass) {
  const auto a = Matrix<std::int64_t>::random(64, 48, 2, 0, 100);
  Matrix<std::int64_t> b1(64, 48), b2(64, 48);
  sathost::sat_sequential<std::int64_t>(a.view(), b1.view());
  sathost::sat_two_pass<std::int64_t>(a.view(), b2.view());
  EXPECT_EQ(b1, b2);
}

// The multithreaded engine (1R1W-SKSS-LB, automatic tile width) at every
// pool size.
class ParallelWorkers : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelWorkers, ParallelMatchesSequential) {
  const auto a = Matrix<std::int64_t>::random(101, 257, 4, 0, 25);
  Matrix<std::int64_t> ref(101, 257), got(101, 257);
  sathost::sat_sequential<std::int64_t>(a.view(), ref.view());
  sathost::ThreadPool pool(GetParam());
  sathost::sat_skss_lb<std::int64_t>(pool, a.view(), got.view());
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelWorkers,
                         ::testing::Values<std::size_t>(1, 2, 4, 8));

// The SKSS-LB engine claims tiles in anti-diagonal (wavefront) order; every
// shape/tile-width pair, ragged edges included, must match sequential.
class WavefrontShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(WavefrontShapes, WavefrontMatchesSequential) {
  const auto [rows, cols, tile] = GetParam();
  const auto a = Matrix<std::int64_t>::random(rows, cols, 7, 0, 100);
  Matrix<std::int64_t> ref(rows, cols), got(rows, cols);
  sathost::sat_sequential<std::int64_t>(a.view(), ref.view());
  sathost::ThreadPool pool(4);
  sathost::SkssLbOptions opt;
  opt.tile_w = tile;
  sathost::sat_skss_lb<std::int64_t>(pool, a.view(), got.view(), opt);
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WavefrontShapes,
    ::testing::Values(std::make_tuple(128ul, 128ul, 32ul),
                      std::make_tuple(100ul, 260ul, 64ul),
                      std::make_tuple(260ul, 100ul, 64ul),
                      std::make_tuple(50ul, 50ul, 128ul),  // single tile
                      std::make_tuple(33ul, 97ul, 7ul)),
    [](const auto& param_info) {
      return std::to_string(std::get<0>(param_info.param)) + "x" +
             std::to_string(std::get<1>(param_info.param)) + "_t" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(HostSat, OneByOne) {
  Matrix<std::int64_t> a(1, 1, 42), b(1, 1);
  sathost::sat_sequential<std::int64_t>(a.view(), b.view());
  EXPECT_EQ(b(0, 0), 42);
}

TEST(HostSat, SingleRowAndColumn) {
  const auto row = Matrix<std::int64_t>::random(1, 64, 5, 0, 9);
  Matrix<std::int64_t> b(1, 64);
  sathost::sat_sequential<std::int64_t>(row.view(), b.view());
  std::int64_t run = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    run += row(0, j);
    EXPECT_EQ(b(0, j), run);
  }
  const auto col = Matrix<std::int64_t>::random(64, 1, 6, 0, 9);
  Matrix<std::int64_t> c(64, 1);
  sathost::sat_sequential<std::int64_t>(col.view(), c.view());
  run = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    run += col(i, 0);
    EXPECT_EQ(c(i, 0), run);
  }
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  sathost::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t c) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  sathost::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch)
    pool.parallel_for(20, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ZeroChunksIsNoop) {
  sathost::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  sathost::ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ZeroChunksLeavesPoolReusable) {
  // Regression for the chunks == 0 guard: the early return must not touch
  // the generation/in-flight bookkeeping, or the next real batch deadlocks.
  sathost::ThreadPool pool(3);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  std::atomic<int> total{0};
  pool.parallel_for(100, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 100);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  pool.parallel_for(100, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, DefaultWorkerCountRunsOnOneCoreMachine) {
  // workers == 0 resolves to hardware_concurrency(), which is 1 on a
  // single-core machine (and may legally report 0 → clamped to 1). With one
  // worker the pool spawns no threads at all: every chunk must run on the
  // calling thread, and parallel_for must still terminate.
  sathost::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> total{0};
  pool.parallel_for(128, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 128);

  sathost::ThreadPool one(1);
  EXPECT_EQ(one.size(), 1u);
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  one.parallel_for(32, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
}

}  // namespace
