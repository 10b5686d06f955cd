// Differential and protocol tests for the host 1R1W-SKSS-LB engine
// (src/host/sat_skss_lb.hpp) and ThreadPool::run_persistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "core/api.hpp"
#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/sat_tiled.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using sat::Matrix;

template <class T>
void expect_sat_equal(const Matrix<T>& input, const Matrix<T>& got) {
  Matrix<T> ref(input.rows(), input.cols());
  sathost::sat_sequential<T>(input.view(), ref.view());
  for (std::size_t i = 0; i < input.rows(); ++i) {
    for (std::size_t j = 0; j < input.cols(); ++j) {
      if constexpr (std::is_integral_v<T>) {
        ASSERT_EQ(got(i, j), ref(i, j)) << "at (" << i << "," << j << ")";
      } else {
        const double expect = static_cast<double>(ref(i, j));
        const double scale = std::max(1.0, std::fabs(expect));
        ASSERT_NEAR(static_cast<double>(got(i, j)), expect, 1e-4 * scale)
            << "at (" << i << "," << j << ")";
      }
    }
  }
}

template <class T>
void run_case(std::size_t rows, std::size_t cols, std::size_t tile_w,
              std::size_t workers, std::uint64_t seed) {
  Matrix<T> input;
  if constexpr (std::is_integral_v<T>) {
    input = Matrix<T>::random(rows, cols, seed, T{0}, T{9});
  } else {
    input = Matrix<T>::random(rows, cols, seed, T{0}, T{1});
  }
  Matrix<T> got(rows, cols);
  sathost::ThreadPool pool(workers);
  sathost::SkssLbOptions opt;
  opt.tile_w = tile_w;
  opt.workers = workers;
  sathost::sat_skss_lb<T>(pool, input.view(), got.view(), opt);
  expect_sat_equal(input, got);
}

// The ISSUE's matrix: n ∈ {1, 7, 256, 1000, 1024} × W ∈ {32, 64, 100} ×
// workers ∈ {1, 2, 8} × {f32, i64}. n = 1000 and W = 100 exercise the
// ragged-edge tiles (n not divisible by W).
class SkssLbMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(SkssLbMatrix, MatchesSequentialF32) {
  const auto [n, w, workers] = GetParam();
  run_case<float>(n, n, w, workers, /*seed=*/n * 131 + w);
}

TEST_P(SkssLbMatrix, MatchesSequentialI64) {
  const auto [n, w, workers] = GetParam();
  run_case<std::int64_t>(n, n, w, workers, /*seed=*/n * 137 + w);
}

// Storage-mode axis of the same sweep: the tiled producer must be
// BIT-exact against the sequential i64 oracle at every (n, W, workers)
// point (integral contract), and Kahan storage must not depend on them.
TEST_P(SkssLbMatrix, ResidualStorageMatchesSequentialI64) {
  const auto [n, w, workers] = GetParam();
  const auto input =
      Matrix<std::int64_t>::random(n, n, /*seed=*/n * 139 + w, 0, 9);
  Matrix<std::int64_t> ref(n, n);
  sathost::sat_sequential<std::int64_t>(input.view(), ref.view());
  sathost::ThreadPool pool(workers);
  sat::TiledSat<std::int64_t> tiled(n, n, w);
  sathost::sat_tiled<std::int64_t>(pool, input.view(), tiled);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(tiled.value(i, j), ref(i, j))
          << "at (" << i << "," << j << ") n=" << n << " w=" << w;
}

TEST_P(SkssLbMatrix, KahanStorageMatchesSequentialF32) {
  // Storage::kKahanF32 has one producer (sat_kahan), which the worker
  // count in the options must not reach: on u8-valued input every cell
  // stays within 1 ulp of the exact i64 sum at every sweep point. (The
  // sweep's tile width only varies the seed here.)
  const auto [n, w, workers] = GetParam();
  const auto wide =
      Matrix<std::int64_t>::random(n, n, /*seed=*/n * 149 + w, 0, 255);
  Matrix<float> input(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      input(i, j) = static_cast<float>(wide(i, j));
  Matrix<std::int64_t> exact(n, n);
  sathost::sat_sequential<std::int64_t>(wide.view(), exact.view());
  sat::Options o;
  o.cpu_threads = workers;
  o.storage = sat::Storage::kKahanF32;
  const Matrix<float> got = sat::compute_sat(input, o).table;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const float e = static_cast<float>(exact(i, j));
      ASSERT_LE(std::fabs(static_cast<double>(got(i, j)) -
                          static_cast<double>(exact(i, j))),
                std::nextafterf(e, HUGE_VALF) - e)
          << "at (" << i << "," << j << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkssLbMatrix,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 7, 256, 1000, 1024),
        ::testing::Values<std::size_t>(32, 64, 100),
        ::testing::Values<std::size_t>(1, 2, 8)));

TEST(SkssLb, DegenerateSingleRow) {
  run_case<std::int64_t>(1, 777, /*tile_w=*/64, /*workers=*/4, 11);
}

TEST(SkssLb, DegenerateSingleColumn) {
  run_case<std::int64_t>(777, 1, /*tile_w=*/64, /*workers=*/4, 12);
}

TEST(SkssLb, RectangularRaggedBothAxes) {
  run_case<std::int64_t>(193, 517, /*tile_w=*/100, /*workers=*/3, 13);
}

TEST(SkssLb, TileWiderThanMatrix) {
  run_case<std::int64_t>(20, 30, /*tile_w=*/256, /*workers=*/2, 14);
}

TEST(SkssLb, WorkersExceedingPoolAndTiles) {
  // opt.workers > pool.size() and > tile count: surplus worker invocations
  // must drain the empty counter and exit without deadlock.
  const auto input = Matrix<std::int64_t>::random(64, 64, 15, 0, 9);
  Matrix<std::int64_t> got(64, 64);
  sathost::ThreadPool pool(2);
  sathost::SkssLbOptions opt;
  opt.tile_w = 32;
  opt.workers = 16;
  sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), opt);
  expect_sat_equal(input, got);
}

// The automatic tile width (SkssLbOptions::tile_w = 0), one row per case:
// one worker keeps the L1-capped width; several workers get page-wide tiles
// when the image holds at least 2·workers of them along each side, and the
// L2 cap on a look-back tile's input otherwise.
struct AutoWidthCase {
  std::size_t rows, cols, workers, elem_bytes, want;
};

std::size_t auto_w(const AutoWidthCase& c) {
  switch (c.elem_bytes) {
    case 4: return sathost::auto_tile_w<float>(c.rows, c.cols, c.workers);
    case 8: return sathost::auto_tile_w<std::int64_t>(c.rows, c.cols,
                                                      c.workers);
  }
  ADD_FAILURE() << "no element type of " << c.elem_bytes << " bytes";
  return 0;
}

TEST(SkssLb, AutoTileWidthTable) {
  const AutoWidthCase cases[] = {
      // One worker: max(128, maxdim), capped at 16 KiB / sizeof(T).
      {12288, 12288, 1, 4, 4096},
      {1024, 1024, 1, 4, 1024},
      {480, 640, 1, 4, 640},
      {12288, 12288, 1, 8, 2048},
      {100, 50, 1, 4, 128},
      // Page-wide (W·sizeof(T) = 4 KiB) with ≥ 2·workers tiles per side.
      {12288, 12288, 4, 4, 1024},
      {8192, 8192, 4, 4, 1024},
      {12288, 12288, 4, 8, 512},
      {4096, 4096, 2, 4, 1024},
      // Otherwise ceil(maxdim / workers), capped at W²·sizeof(T) ≤ 1 MiB.
      {4096, 4096, 4, 4, 512},
      {4320, 7680, 4, 4, 512},
      {1024, 1024, 4, 4, 256},
      {3000, 3000, 4, 8, 320},
      {1024, 1024, 4, 8, 256},
      {1000, 1000, 8, 4, 128},
  };
  for (const AutoWidthCase& c : cases)
    EXPECT_EQ(auto_w(c), c.want)
        << c.rows << "x" << c.cols << " workers=" << c.workers
        << " sizeof(T)=" << c.elem_bytes;
  // f32 and i32 share the 4-byte widths.
  EXPECT_EQ(sathost::auto_tile_w<std::int32_t>(12288, 12288, 4), 1024u);
  EXPECT_EQ(sathost::auto_tile_w<std::int32_t>(4320, 7680, 4), 512u);
  EXPECT_EQ(sathost::auto_tile_w<std::int32_t>(12288, 12288, 1), 4096u);
}

/// With several workers, either a W×W tile's input fits the L2 budget or
/// the tile is page-wide with at least 2·workers tiles along each side.
template <class T>
void expect_within_caps(std::size_t rows, std::size_t cols,
                        std::size_t workers) {
  const std::size_t w = sathost::auto_tile_w<T>(rows, cols, workers);
  const auto where = [&] {
    return ::testing::Message() << rows << "x" << cols << " workers="
                                << workers << " sizeof(T)=" << sizeof(T)
                                << " W=" << w;
  };
  EXPECT_GE(w, 128u) << where();
  EXPECT_LE(w * sizeof(T), 16384u) << where();
  if (workers <= 1) return;
  const bool l2 = w * w * sizeof(T) <= sathost::kL2RereadBytes;
  const bool page_wide = w * sizeof(T) == 4096 &&
                         std::min(rows, cols) / w >= 2 * workers;
  EXPECT_TRUE(l2 || page_wide) << where();
}

TEST(SkssLb, AutoTileWidthStaysWithinItsCaps) {
  const std::size_t sizes[] = {1,    7,    128,  500,   1024,
                               4097, 8192, 8191, 12288, 65536};
  const std::size_t worker_counts[] = {0, 1, 2, 3, 4, 8, 64};
  for (const std::size_t n : sizes)
    for (const std::size_t workers : worker_counts) {
      expect_within_caps<float>(n, n, workers);
      expect_within_caps<double>(n, n, workers);
      expect_within_caps<float>(n, 7680, workers);
      expect_within_caps<double>(4320, n, workers);
    }
}

TEST(SkssLb, PageWideAutoTilesMatchSequential) {
  // 4096² on 2 workers is where the page-wide rule first fires for a
  // 4-byte T (4 tiles per side ≥ 2·2). i32 input, so the table must be
  // bit-exact; values below 8 keep every prefix sum under 2^31.
  constexpr std::size_t kN = 4096;
  const auto input = Matrix<std::int32_t>::random(kN, kN, 21, 0, 7);
  Matrix<std::int32_t> ref(kN, kN), got(kN, kN);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());
  sathost::ThreadPool pool(2);
  obs::Registry reg;
  sathost::SkssLbOptions opt;
  opt.workers = 2;
  opt.metrics = &reg;
  sathost::sat_skss_lb<std::int32_t>(pool, input.view(), got.view(), opt);
  ASSERT_TRUE(got == ref);
  const obs::Snapshot snap = reg.snapshot();
  const double* w = snap.gauge("host.lookback.tile_w");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(*w, 1024.0);
}

TEST(SkssLb, EmptyMatrixIsNoop) {
  sathost::ThreadPool pool(2);
  Matrix<std::int64_t> input(0, 0), got(0, 0);
  sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), {});
}

TEST(SkssLb, BatchEveryImageMatchesSequential) {
  // The pipelined batch entry: several ragged-shaped images through one
  // claim counter, each bit-exact against its own oracle. Worker counts
  // above and below the per-image tile count stress the cross-image
  // handoff.
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    constexpr std::size_t kRows = 193, kCols = 210, kBatch = 4;
    std::vector<Matrix<std::int64_t>> inputs;
    std::vector<Matrix<std::int64_t>> outs;
    std::vector<satutil::Span2d<const std::int64_t>> srcs;
    std::vector<satutil::Span2d<std::int64_t>> dsts;
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      inputs.push_back(
          Matrix<std::int64_t>::random(kRows, kCols, 600 + k, 0, 9));
      outs.emplace_back(kRows, kCols);
    }
    for (std::size_t k = 0; k < kBatch; ++k) {
      srcs.push_back(inputs[k].view());
      dsts.push_back(outs[k].view());
    }
    sathost::ThreadPool pool(workers);
    sathost::SkssLbOptions opt;
    opt.tile_w = 100;  // ragged edges on both axes
    opt.workers = workers;
    sathost::sat_skss_lb_batch<std::int64_t>(pool, srcs, dsts, opt);
    for (std::size_t k = 0; k < kBatch; ++k) expect_sat_equal(inputs[k], outs[k]);
  }
}

TEST(SkssLb, BatchPublishesPipelineMetrics) {
  constexpr std::size_t kBatch = 3, kN = 128;
  std::vector<Matrix<std::int64_t>> inputs;
  std::vector<Matrix<std::int64_t>> outs;
  std::vector<satutil::Span2d<const std::int64_t>> srcs;
  std::vector<satutil::Span2d<std::int64_t>> dsts;
  for (std::uint64_t k = 0; k < kBatch; ++k) {
    inputs.push_back(Matrix<std::int64_t>::random(kN, kN, 700 + k, 0, 9));
    outs.emplace_back(kN, kN);
  }
  for (std::size_t k = 0; k < kBatch; ++k) {
    srcs.push_back(inputs[k].view());
    dsts.push_back(outs[k].view());
  }
  sathost::ThreadPool pool(2);
  obs::Registry reg;
  sathost::SkssLbOptions opt;
  opt.tile_w = 32;
  opt.workers = 2;
  opt.metrics = &reg;
  sathost::sat_skss_lb_batch<std::int64_t>(pool, srcs, dsts, opt);
  const obs::Snapshot snap = reg.snapshot();
  const std::uint64_t* tiles = snap.counter("host.lookback.tiles_retired");
  ASSERT_NE(tiles, nullptr);
  EXPECT_EQ(*tiles, kBatch * (kN / 32) * (kN / 32));
  // The overlap gauge is always set for batch > 1 (0 when nothing
  // pipelined).
  const bool has_overlap_pct =
      std::any_of(snap.gauges.begin(), snap.gauges.end(), [](const auto& g) {
        return g.first == "host.lookback.pipeline_overlap_pct";
      });
  EXPECT_TRUE(has_overlap_pct);
  for (std::size_t k = 0; k < kBatch; ++k) expect_sat_equal(inputs[k], outs[k]);
}

// Flag-protocol stress: randomized stalls injected after each tile claim
// force deep look-back walks and every waiter/publisher interleaving the
// scheduler will give us. TSan-friendly: all cross-thread traffic goes
// through the engine's atomics, and the stall duration is thread-local.
TEST(SkssLb, StressRandomStalls) {
  const auto input = Matrix<std::int64_t>::random(300, 300, 99, 0, 9);
  Matrix<std::int64_t> ref(300, 300);
  sathost::sat_sequential<std::int64_t>(input.view(), ref.view());
  sathost::ThreadPool pool(4);
  for (std::uint64_t round = 0; round < 5; ++round) {
    Matrix<std::int64_t> got(300, 300);
    std::atomic<std::uint64_t> mix{round * 7919 + 1};
    sathost::SkssLbOptions opt;
    opt.tile_w = 32;
    opt.workers = 4;
    opt.tile_hook = [&](std::size_t serial) {
      // Cheap thread-agnostic PRNG: stall ~every third claim for 0–200 µs.
      std::uint64_t x = mix.fetch_add(serial + 0x9e3779b9,
                                      std::memory_order_relaxed);
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      if (x % 3 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(x % 200));
    };
    sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), opt);
    ASSERT_EQ(got, ref) << "round " << round;
  }
}

TEST(SkssLb, PublishesLookbackMetrics) {
  obs::Registry reg;
  const auto input = Matrix<std::int64_t>::random(256, 256, 5, 0, 9);
  Matrix<std::int64_t> got(256, 256);
  sathost::ThreadPool pool(2);
  sathost::SkssLbOptions opt;
  opt.tile_w = 64;
  opt.workers = 2;
  opt.metrics = &reg;
  sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), opt);
  expect_sat_equal(input, got);
  const obs::Snapshot snap = reg.snapshot();
  bool saw_tiles = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "host.lookback.tiles_retired") {
      saw_tiles = true;
      EXPECT_EQ(value, 16u);  // (256/64)^2 tiles, each retired once
    }
  }
  EXPECT_TRUE(saw_tiles);
  const obs::HistogramSnapshot* depth =
      snap.histogram("host.lookback.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0u);
  const double* tile_w = snap.gauge("host.lookback.tile_w");
  ASSERT_NE(tile_w, nullptr);
  EXPECT_EQ(*tile_w, 64.0);
}

TEST(SkssLb, EmitsPerTileTraceSpans) {
  obs::TraceSink sink;
  const auto input = Matrix<std::int64_t>::random(128, 128, 6, 0, 9);
  Matrix<std::int64_t> got(128, 128);
  sathost::ThreadPool pool(2);
  sathost::SkssLbOptions opt;
  opt.tile_w = 32;
  opt.trace = &sink;
  sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), opt);
  expect_sat_equal(input, got);
  // One complete span per tile plus the process-name metadata event.
  EXPECT_GE(sink.event_count(), (128 / 32) * (128 / 32));
}

TEST(RunPersistent, InvokesEveryWorkerIndexOnce) {
  sathost::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(9);
  for (auto& h : hits) h.store(0);
  pool.run_persistent(9, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "worker " << i;
}

TEST(RunPersistent, ZeroMeansPoolSize) {
  sathost::ThreadPool pool(3);
  std::atomic<std::size_t> calls{0};
  pool.run_persistent(0, [&](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), pool.size());
}

TEST(RunPersistent, WorkersCanBlockOnEachOther) {
  // Two persistent workers rendezvous through an atomic — impossible under
  // parallel_for semantics only if the pool serialized them; run_persistent
  // with workers ≤ pool.size() must run them concurrently.
  sathost::ThreadPool pool(2);
  std::atomic<int> stage{0};
  pool.run_persistent(2, [&](std::size_t i) {
    stage.fetch_add(1, std::memory_order_acq_rel);
    while (stage.load(std::memory_order_acquire) < 2)
      std::this_thread::yield();
    (void)i;
  });
  EXPECT_EQ(stage.load(), 2);
}

TEST(RunPersistent, ReusableAfterBatchesAndParallelFor) {
  sathost::ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  pool.run_persistent(5, [&](std::size_t) {
    total.fetch_add(10, std::memory_order_relaxed);
  });
  pool.parallel_for(4, [&](std::size_t) {
    total.fetch_add(100, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10 + 50 + 400u);
}

}  // namespace
