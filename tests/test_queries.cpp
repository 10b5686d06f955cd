// Tests for the on-device region-query kernels and the PGM image I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/api.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "repro/repro.hpp"
#include "sat/query_kernel.hpp"
#include "util/pgm.hpp"
#include "util/rng.hpp"

namespace {

using sat::Matrix;
using sat::Rect;

class QueryKernels : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 128;
  gpusim::SimContext sim;
  Matrix<std::int64_t> input = Matrix<std::int64_t>::random(kN, kN, 3, 0, 50);
  Matrix<std::int64_t> table{kN, kN};

  std::vector<Rect> random_rects(std::size_t count, std::uint64_t seed) {
    satutil::Rng rng(seed);
    std::vector<Rect> out(count);
    for (auto& r : out) {
      std::size_t r0 = rng.next_below(kN), r1 = rng.next_below(kN + 1);
      std::size_t c0 = rng.next_below(kN), c1 = rng.next_below(kN + 1);
      if (r0 > r1) std::swap(r0, r1);
      if (c0 > c1) std::swap(c0, c1);
      r = {r0, c0, r1, c1};
    }
    return out;
  }

  void SetUp() override {
    sathost::sat_sequential<std::int64_t>(input.view(), table.view());
  }
};

TEST_F(QueryKernels, SatQueriesMatchBruteForceKernel) {
  gpusim::GlobalBuffer<std::int64_t> in_buf(sim, kN * kN, "in"),
      tab_buf(sim, kN * kN, "tab");
  in_buf.upload(input.storage());
  tab_buf.upload(table.storage());
  const auto rects = random_rects(500, 7);
  const auto via_sat =
      satalgo::run_query_kernel(sim, tab_buf, kN, kN, rects);
  const auto via_brute =
      satalgo::run_query_kernel_brute(sim, in_buf, kN, kN, rects);
  ASSERT_EQ(via_sat.size(), rects.size());
  ASSERT_EQ(via_sat, via_brute);
  // And both match the host-side region_sum.
  for (std::size_t k = 0; k < rects.size(); ++k)
    ASSERT_EQ(via_sat[k], sat::region_sum(table, rects[k])) << k;
}

TEST_F(QueryKernels, SatKernelReadsExactlyFourPerQuery) {
  gpusim::GlobalBuffer<std::int64_t> tab_buf(sim, kN * kN, "tab");
  tab_buf.upload(table.storage());
  const auto rects = random_rects(1000, 9);
  gpusim::KernelReport rep;
  (void)satalgo::run_query_kernel(sim, tab_buf, kN, kN, rects, &rep);
  EXPECT_EQ(rep.counters.element_reads, 4 * rects.size());
  EXPECT_EQ(rep.counters.element_writes, 0u);
}

TEST_F(QueryKernels, BruteKernelReadsTheWholeRectangles) {
  gpusim::GlobalBuffer<std::int64_t> in_buf(sim, kN * kN, "in");
  in_buf.upload(input.storage());
  const std::vector<Rect> rects = {{0, 0, 10, 10}, {5, 5, 6, 105}};
  gpusim::KernelReport rep;
  (void)satalgo::run_query_kernel_brute(sim, in_buf, kN, kN, rects, &rep);
  EXPECT_EQ(rep.counters.element_reads, 100u + 100u);
}

TEST_F(QueryKernels, EmptyQueryListIsANoop) {
  gpusim::GlobalBuffer<std::int64_t> tab_buf(sim, kN * kN, "tab");
  tab_buf.upload(table.storage());
  EXPECT_TRUE(satalgo::run_query_kernel(sim, tab_buf, kN, kN, {}).empty());
}

TEST_F(QueryKernels, CountOnlyModeCountsWithoutData) {
  gpusim::SimContext co;
  co.materialize = false;
  gpusim::GlobalBuffer<std::int64_t> tab_buf(co, kN * kN, "tab");
  gpusim::KernelReport rep;
  const auto out = satalgo::run_query_kernel(co, tab_buf, kN, kN,
                                             random_rects(64, 11), &rep);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rep.counters.element_reads, 4 * 64u);
}

// --- query battery across storage modes ------------------------------------

/// Rectangular, degenerate (1×n / n×1 / single-cell / empty) and
/// tile-boundary-straddling rectangles. `w` is the residual tile width the
/// straddling boxes are aimed at: each one crosses at least one multiple of
/// w in each axis, so every four-corner lookup mixes tiles.
std::vector<Rect> query_battery(std::size_t rows, std::size_t cols,
                                std::size_t w) {
  std::vector<Rect> qs;
  // Degenerate thin slabs along each border and through the middle.
  qs.push_back({0, 0, 1, cols});               // 1×n top row
  qs.push_back({rows - 1, 0, rows, cols});     // 1×n bottom row
  qs.push_back({rows / 2, 0, rows / 2 + 1, cols});
  qs.push_back({0, 0, rows, 1});               // n×1 left column
  qs.push_back({0, cols - 1, rows, cols});     // n×1 right column
  qs.push_back({0, cols / 2, rows, cols / 2 + 1});
  qs.push_back({0, 0, 1, 1});                  // single cell at origin
  qs.push_back({rows - 1, cols - 1, rows, cols});
  qs.push_back({3, 5, 3, 9});                  // empty (r0 == r1)
  qs.push_back({4, 7, 9, 7});                  // empty (c0 == c1)
  qs.push_back({0, 0, rows, cols});            // whole table
  // Tile-boundary straddlers: a ±1 band around every interior multiple of
  // w, in both axes, plus boxes that span several whole tiles.
  for (std::size_t b = w; b < rows; b += w) {
    qs.push_back({b - 1, 0, b + 1, cols});
    qs.push_back({b - 1, w - 1, b + 1, std::min(cols, w + 1)});
  }
  for (std::size_t b = w; b < cols; b += w) {
    qs.push_back({0, b - 1, rows, b + 1});
  }
  if (rows > w + 2 && cols > 2 * w + 2)
    qs.push_back({w - 1, w - 1, w + 2, 2 * w + 2});  // 4-tile corner cross
  return qs;
}

TEST(StorageModeQueries, DenseAndResidualAgreeOnDegenerateAndStraddling) {
  const std::size_t rows = 96, cols = 160, w = 32;
  const auto in = sat::Matrix<std::int32_t>::random(rows, cols, 19, 0, 255);
  sat::Matrix<std::int64_t> wide(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      wide(i, j) = in(i, j);
  sat::Matrix<std::int64_t> dense(rows, cols);
  sathost::sat_sequential<std::int64_t>(wide.view(), dense.view());
  sat::TiledSat<std::int32_t> tiled(rows, cols, w);
  sathost::ThreadPool pool(2);
  sathost::sat_skss_lb_residual<std::int32_t>(pool, in.view(), tiled);

  for (const Rect& r : query_battery(rows, cols, w)) {
    const std::int64_t expect = sat::region_sum(dense, r);
    ASSERT_EQ(sat::region_sum(tiled, r), expect)
        << "[" << r.r0 << "," << r.r1 << ")x[" << r.c0 << "," << r.c1 << ")";
    // Brute-force the rectangle from the input as an independent oracle.
    std::int64_t brute = 0;
    for (std::size_t i = r.r0; i < r.r1; ++i)
      for (std::size_t j = r.c0; j < r.c1; ++j) brute += in(i, j);
    ASSERT_EQ(expect, brute);
  }
}

TEST(StorageModeQueries, KahanTableAnswersTheSameBattery) {
  const std::size_t rows = 128, cols = 96, w = 32;
  const auto in = sat::Matrix<float>::random(rows, cols, 29, 0.0f, 255.0f);
  sat::Options o;
  o.cpu_engine = sat::CpuEngine::kSimd;
  o.storage = sat::Storage::kKahanF32;
  const auto kah = sat::compute_sat(in, o);
  for (const Rect& r : query_battery(rows, cols, w)) {
    double brute = 0;
    for (std::size_t i = r.r0; i < r.r1; ++i)
      for (std::size_t j = r.c0; j < r.c1; ++j)
        brute += static_cast<double>(in(i, j));
    const double got = static_cast<double>(sat::region_sum(kah.table, r));
    // The four-corner difference cancels in f32: a small box far from the
    // origin subtracts corners of table-total magnitude (~1.5e6 here), so
    // the achievable absolute error is a few ulps of THAT, not of the box
    // sum — Kahan keeps the stored corners exact-as-representable but
    // cannot beat the representation. Tolerance: 4 corner roundings.
    const double table_total = 128.0 * 96.0 * 255.0;
    const double tol = 4.0 * table_total * 0x1p-23 + std::abs(brute) * 1e-5;
    ASSERT_NEAR(got, brute, tol)
        << "[" << r.r0 << "," << r.r1 << ")x[" << r.c0 << "," << r.c1 << ")";
  }
}

TEST(StorageModeQueries, TiledQueryKernelHandlesTheBattery) {
  const std::size_t rows = 96, cols = 96, w = 32;
  const auto in = sat::Matrix<std::int64_t>::random(rows, cols, 37, 0, 50);
  sat::Matrix<std::int64_t> dense(rows, cols);
  sathost::sat_sequential<std::int64_t>(in.view(), dense.view());
  sat::TiledSat<std::int64_t> tiled(rows, cols, w);
  sathost::ThreadPool pool(2);
  sathost::sat_skss_lb_residual<std::int64_t>(pool, in.view(), tiled);
  gpusim::SimContext qsim;
  const auto battery = query_battery(rows, cols, w);
  const auto got = satalgo::run_query_kernel_tiled(qsim, tiled, battery);
  ASSERT_EQ(got.size(), battery.size());
  for (std::size_t k = 0; k < battery.size(); ++k)
    ASSERT_EQ(got[k], sat::region_sum(dense, battery[k])) << k;
}

// --- PGM I/O ---------------------------------------------------------------

TEST(Pgm, WriteReadRoundTrip) {
  satutil::PgmImage img;
  img.rows = 13;
  img.cols = 17;
  img.pixels.resize(13 * 17);
  for (std::size_t k = 0; k < img.pixels.size(); ++k)
    img.pixels[k] = static_cast<std::uint8_t>((k * 7) % 256);
  const std::string path = ::testing::TempDir() + "roundtrip.pgm";
  satutil::write_pgm(path, img);
  const auto back = satutil::read_pgm(path);
  EXPECT_EQ(back.rows, img.rows);
  EXPECT_EQ(back.cols, img.cols);
  EXPECT_EQ(back.pixels, img.pixels);
  std::remove(path.c_str());
}

TEST(Pgm, ReadsAsciiP2WithComments) {
  const std::string path = ::testing::TempDir() + "ascii.pgm";
  {
    std::ofstream os(path);
    os << "P2\n# a comment\n3 2\n255\n0 128 255\n# mid\n10 20 30\n";
  }
  const auto img = satutil::read_pgm(path);
  EXPECT_EQ(img.rows, 2u);
  EXPECT_EQ(img.cols, 3u);
  EXPECT_EQ(img.at(0, 1), 128);
  EXPECT_EQ(img.at(1, 2), 30);
  std::remove(path.c_str());
}

TEST(Pgm, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "garbage.pgm";
  {
    std::ofstream os(path);
    os << "JUNK\n";
  }
  EXPECT_THROW((void)satutil::read_pgm(path), satutil::CheckError);
  EXPECT_THROW((void)satutil::read_pgm("/nonexistent/file.pgm"),
               satutil::CheckError);
  std::remove(path.c_str());
}

TEST(Pgm, TruncatedBinaryDetected) {
  const std::string path = ::testing::TempDir() + "trunc.pgm";
  {
    std::ofstream os(path, std::ios::binary);
    os << "P5\n4 4\n255\nxx";  // 2 of 16 bytes
  }
  EXPECT_THROW((void)satutil::read_pgm(path), satutil::CheckError);
  std::remove(path.c_str());
}

TEST(Pgm, IntegratesWithSatPipeline) {
  // PGM → Matrix → SAT → box filter → PGM.
  satutil::PgmImage img;
  img.rows = img.cols = 64;
  img.pixels.assign(64 * 64, 0);
  for (std::size_t i = 24; i < 40; ++i)
    for (std::size_t j = 24; j < 40; ++j) img.at(i, j) = 200;
  Matrix<std::int32_t> m(64, 64);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j) m(i, j) = img.at(i, j);
  const auto result = satrepro::compute_sat(m, [] {
    satrepro::Options o;
    o.params.tile_w = 32;
    return o;
  }());
  EXPECT_FALSE(sat::validate_sat(m, result.table).has_value());
  // Blur and write back out.
  satutil::PgmImage out = img;
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j) {
      const std::size_t r0 = i >= 2 ? i - 2 : 0, c0 = j >= 2 ? j - 2 : 0;
      const std::size_t r1 = std::min<std::size_t>(64, i + 3);
      const std::size_t c1 = std::min<std::size_t>(64, j + 3);
      out.at(i, j) = static_cast<std::uint8_t>(
          sat::region_mean(result.table, {r0, c0, r1, c1}));
    }
  const std::string path = ::testing::TempDir() + "blur.pgm";
  satutil::write_pgm(path, out);
  const auto back = satutil::read_pgm(path);
  EXPECT_EQ(back.at(32, 32), 200);  // interior untouched
  EXPECT_GT(back.at(23, 23), 0);    // edge smeared outward
  EXPECT_LT(back.at(23, 23), 200);
  std::remove(path.c_str());
}

}  // namespace
