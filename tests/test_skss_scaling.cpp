// Multicore scaling gate for the host 1R1W-SKSS-LB engine.
//
// Workers claim tiles one at a time off the engine's shared counter, as the
// paper's blocks do, so the tiles in flight are consecutive serials whose
// look-back predecessors are usually already published. The auto tile
// width (sathost::auto_tile_w) gives two workers page-wide 1024-wide tiles
// at 4096² i32 (4 tiles per side ≥ 2·2), while one worker sweeps the whole
// matrix as one 4096-wide tile. This test pins the headline claim — two
// workers beat one on a 4096x4096 image — as a ctest that SKIPS on
// single-core boxes (a 1-core machine can only measure oversubscription
// overhead, which the perf ledger's skss_lb_t* rows document instead).
//
// The input is i32 so the two outputs must be bit-equal by the engine's
// contract: integral tables are exact whatever the worker count, while f32
// results depend on which path each tile took (the fast path derives GCS
// by differencing the bottom output row, which is not exact in f32).
//
// Timing discipline matches tools/run_benches.cpp: the worker counts are
// INTERLEAVED, one iteration of each per round with best-of tracking, so
// machine drift across the test penalizes both configurations equally.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/matrix.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"

namespace {

template <class Fn>
double once_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(SkssScaling, TwoWorkersBeatOneAt4096) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "single hardware thread: parallel speedup is not "
                    "measurable here (see the skss_lb_t* ledger rows)";

  const std::size_t n = 4096;
  // Values below 8 keep every prefix sum of a 4096² table under 2^31.
  const auto a = sat::Matrix<std::int32_t>::random(n, n, 1, 0, 7);
  sat::Matrix<std::int32_t> b1(n, n), b2(n, n);
  const auto src = a.view();

  sathost::ThreadPool pool1(1), pool2(2);
  sathost::SkssLbOptions opt;
  const auto run1 = [&] {
    sathost::sat_skss_lb<std::int32_t>(pool1, src, b1.view(), opt);
  };
  const auto run2 = [&] {
    sathost::sat_skss_lb<std::int32_t>(pool2, src, b2.view(), opt);
  };

  // Warm-up: fault in both destination buffers and the pools' arenas.
  run1();
  run2();

  ASSERT_EQ(std::memcmp(b1.data(), b2.data(), n * n * sizeof(std::int32_t)),
            0)
      << "2-worker result diverges from 1-worker result";

  constexpr int kIters = 5;
  double best1 = 0.0, best2 = 0.0;
  for (int i = 0; i < kIters; ++i) {
    const double t1 = once_ms(run1);
    const double t2 = once_ms(run2);
    if (i == 0 || t1 < best1) best1 = t1;
    if (i == 0 || t2 < best2) best2 = t2;
  }

  std::printf("best of %d: t1=%.3f ms t2=%.3f ms (t2/t1 = %.2f)\n", kIters,
              best1, best2, best2 / best1);
  EXPECT_LT(best2, best1)
      << "2 workers must beat 1 at " << n << "x" << n << ": t1=" << best1
      << "ms t2=" << best2 << "ms";
}

}  // namespace
