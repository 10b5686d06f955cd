// Tests for the vision module: box filter, moment tables, adaptive
// threshold, Haar features, and ZNCC template matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/region.hpp"
#include "util/check.hpp"

namespace {
/// A 600² table whose region_mean throws for every window centred on row
/// 320 or below (radius 1): 18 of box_filter's 38 output bands, so that a
/// pool worker, not only the calling thread, meets one whatever the order
/// the bands are claimed in.
struct ThrowingTable {
  [[nodiscard]] std::size_t rows() const { return 600; }
  [[nodiscard]] std::size_t cols() const { return 600; }
};
}  // namespace

// box_filter calls sat::region_mean by its qualified name, so this overload
// must be declared before the vision headers.
namespace sat {
[[nodiscard]] inline double region_mean(const ThrowingTable& /*table*/,
                                        const Rect& rect) {
  SAT_CHECK_MSG(rect.r0 < 319, "poisoned window at row " << rect.r0 + 1);
  return 0.0;
}
}  // namespace sat

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "repro/device_filter.hpp"
#include "util/rng.hpp"
#include "vision/haar.hpp"
#include "vision/integral_ops.hpp"
#include "vision/match.hpp"

namespace {

using sat::Matrix;

Matrix<double> table_of(const Matrix<float>& img) {
  Matrix<double> v(img.rows(), img.cols());
  for (std::size_t i = 0; i < img.rows(); ++i)
    for (std::size_t j = 0; j < img.cols(); ++j) v(i, j) = img(i, j);
  Matrix<double> t(img.rows(), img.cols());
  sathost::sat_sequential<double>(v.view(), t.view());
  return t;
}

TEST(Vision, WindowAtClampsToImage) {
  const auto w = satvision::window_at(0, 0, 5, 100, 100);
  EXPECT_EQ(w.r0, 0u);
  EXPECT_EQ(w.r1, 6u);
  const auto w2 = satvision::window_at(99, 50, 5, 100, 100);
  EXPECT_EQ(w2.r1, 100u);
  EXPECT_EQ(w2.c0, 45u);
}

TEST(Vision, BoxFilterOfConstantIsConstant) {
  Matrix<float> img(64, 64, 3.0f);
  const auto filtered = satvision::box_filter(table_of(img), 4);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      ASSERT_NEAR(filtered(i, j), 3.0f, 1e-5);
}

TEST(Vision, BoxFilterMatchesDirectConvolution) {
  const auto img = Matrix<float>::random(48, 56, 2, 0.0f, 1.0f);
  const auto filtered = satvision::box_filter(table_of(img), 3);
  satutil::Rng rng(9);
  for (int t = 0; t < 100; ++t) {
    const std::size_t i = rng.next_below(48), j = rng.next_below(56);
    const auto w = satvision::window_at(i, j, 3, 48, 56);
    double sum = 0;
    for (std::size_t r = w.r0; r < w.r1; ++r)
      for (std::size_t c = w.c0; c < w.c1; ++c) sum += img(r, c);
    ASSERT_NEAR(filtered(i, j), sum / double(w.area()), 1e-4);
  }
}

// 600² output pixels get a worker per core (up to 87 by the 4K rule): the
// bands must come out bit for bit as a serial per-pixel region_mean loop
// writes them, from a dense f64 table and from a TiledSat<int32>.
TEST(Vision, BoxFilterOnSeveralWorkersMatchesSerialLoop) {
  const std::size_t n = 600, radius = 3;
  const auto img = Matrix<std::int32_t>::random(n, n, 21, 0, 255);
  Matrix<double> pixels(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pixels(i, j) = img(i, j);
  Matrix<double> dense(n, n);
  sathost::sat_sequential<double>(pixels.view(), dense.view());
  const auto tiled = sat::compute_sat_tiled(img, sat::Options{}).table;
  auto check = [&](const auto& table) {
    const auto filtered = satvision::box_filter(table, radius);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(filtered(i, j),
                  static_cast<float>(sat::region_mean(
                      table, satvision::window_at(i, j, radius, n, n))))
            << i << "," << j;
  };
  check(dense);
  check(tiled);
}

// An exception from region_mean in a band reaches the caller; a pool
// worker that let it escape would end the program instead.
TEST(Vision, BoxFilterRethrowsOnTheCaller) {
  EXPECT_THROW((void)satvision::box_filter(ThrowingTable{}, 1),
               satutil::CheckError);
}

TEST(Vision, MomentTablesMeanAndVariance) {
  const auto img = Matrix<float>::random(40, 40, 3, 0.0f, 10.0f);
  const auto mom = satvision::MomentTables::build(img);
  const sat::Rect rect{5, 7, 25, 31};
  double mean = 0;
  for (std::size_t i = rect.r0; i < rect.r1; ++i)
    for (std::size_t j = rect.c0; j < rect.c1; ++j) mean += img(i, j);
  mean /= double(rect.area());
  double var = 0;
  for (std::size_t i = rect.r0; i < rect.r1; ++i)
    for (std::size_t j = rect.c0; j < rect.c1; ++j) {
      const double d = img(i, j) - mean;
      var += d * d;
    }
  var /= double(rect.area());
  EXPECT_NEAR(mom.mean(rect), mean, 1e-6);
  EXPECT_NEAR(mom.variance(rect), var, 1e-5);
  EXPECT_NEAR(mom.stddev(rect), std::sqrt(var), 1e-5);
}

TEST(Vision, VarianceOfConstantIsZero) {
  Matrix<float> img(32, 32, 5.5f);
  const auto mom = satvision::MomentTables::build(img);
  EXPECT_NEAR(mom.variance({0, 0, 32, 32}), 0.0, 1e-9);
  EXPECT_GE(mom.variance({0, 0, 32, 32}), 0.0);  // clamped, never negative
}

TEST(Vision, LocalStddevHighlightsEdges) {
  // Flat left half, flat right half, step in the middle: σ peaks at the step.
  Matrix<float> img(32, 32, 0.0f);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 16; j < 32; ++j) img(i, j) = 1.0f;
  const auto mom = satvision::MomentTables::build(img);
  const auto sd = satvision::local_stddev(mom, 2);
  EXPECT_NEAR(sd(16, 2), 0.0f, 1e-6);
  EXPECT_NEAR(sd(16, 29), 0.0f, 1e-6);
  EXPECT_GT(sd(16, 15), 0.3f);
}

TEST(Vision, AdaptiveThresholdSeparatesInkFromPaper) {
  // Dark glyph on bright background with a brightness gradient that defeats
  // any global threshold.
  Matrix<float> img(64, 64);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      img(i, j) = 0.5f + 0.4f * float(j) / 64.0f;
  for (std::size_t i = 20; i < 28; ++i)
    for (std::size_t j = 8; j < 56; ++j) img(i, j) *= 0.3f;
  const auto mom = satvision::MomentTables::build(img);
  const auto bin = satvision::adaptive_threshold(img, mom, 8, 0.2, 0.5);
  // Glyph interior marked foreground; far background not.
  EXPECT_EQ(bin(24, 12), 1);
  EXPECT_EQ(bin(24, 50), 1);
  EXPECT_EQ(bin(5, 12), 0);
  EXPECT_EQ(bin(60, 50), 0);
}

TEST(Vision, GaussianApproxSmoothsAndPreservesMean) {
  const auto img = Matrix<float>::random(48, 48, 5, 0.0f, 1.0f);
  const auto smooth = satvision::gaussian_approx(img, 2, 3);
  double m0 = 0, m1 = 0, v0 = 0, v1 = 0;
  for (std::size_t i = 8; i < 40; ++i)
    for (std::size_t j = 8; j < 40; ++j) {
      m0 += img(i, j);
      m1 += smooth(i, j);
    }
  m0 /= 1024;
  m1 /= 1024;
  for (std::size_t i = 8; i < 40; ++i)
    for (std::size_t j = 8; j < 40; ++j) {
      v0 += (img(i, j) - m0) * (img(i, j) - m0);
      v1 += (smooth(i, j) - m1) * (smooth(i, j) - m1);
    }
  EXPECT_NEAR(m1, m0, 0.02);       // mean preserved away from borders
  EXPECT_LT(v1, v0 / 4);           // strongly smoothed
}

TEST(Vision, HaarEdgeFeatureSignsAreCorrect) {
  // Top half dark (0), bottom half bright (1): horizontal edge = bottom−top > 0.
  Matrix<float> img(32, 32, 0.0f);
  for (std::size_t i = 16; i < 32; ++i)
    for (std::size_t j = 0; j < 32; ++j) img(i, j) = 1.0f;
  const auto table = table_of(img);
  const auto f = satvision::haar_edge_horizontal(32, 32);
  EXPECT_GT(f.evaluate(table, 0, 0), 200.0);
  const auto fv = satvision::haar_edge_vertical(32, 32);
  EXPECT_NEAR(fv.evaluate(table, 0, 0), 0.0, 1e-6);
}

TEST(Vision, HaarLineFeatureFiresOnBand) {
  // Bright-dark-bright vertical thirds.
  Matrix<float> img(30, 30, 1.0f);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 10; j < 20; ++j) img(i, j) = 0.0f;
  const auto table = table_of(img);
  const auto f = satvision::haar_line_vertical(30, 30);
  EXPECT_GT(f.evaluate(table, 0, 0), 500.0);
}

TEST(Vision, HaarFourSquare) {
  // Checkerboard quadrants: (+ − / − +) pattern gives a large response.
  Matrix<float> img(32, 32, 0.0f);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j) img(i, j) = 1.0f;
  for (std::size_t i = 16; i < 32; ++i)
    for (std::size_t j = 16; j < 32; ++j) img(i, j) = 1.0f;
  const auto table = table_of(img);
  const auto f = satvision::haar_four_square(32, 32);
  EXPECT_GT(f.evaluate(table, 0, 0), 500.0);
}

TEST(Vision, ScanFeatureFindsThePlantedPattern) {
  Matrix<float> img = Matrix<float>::random(64, 64, 6, 0.0f, 0.1f);
  for (std::size_t i = 40; i < 48; ++i)       // bright bottom half at (32,16)
    for (std::size_t j = 16; j < 32; ++j) img(i, j) = 1.0f;
  const auto table = table_of(img);
  const auto f = satvision::haar_edge_horizontal(16, 16);
  const auto hits = satvision::scan_feature(table, f, 50.0, 2);
  ASSERT_FALSE(hits.empty());
  // scan_feature ranks by |response|; the window one step below the patch
  // sees the inverse contrast and ties in magnitude, so look for the
  // strongest *positive* response (bright bottom half under a dark top).
  const auto pos = std::find_if(hits.begin(), hits.end(),
                                [](const auto& h) { return h.response > 0; });
  ASSERT_NE(pos, hits.end());
  EXPECT_NEAR(double(pos->row), 32.0, 4.0);
  EXPECT_NEAR(double(pos->col), 20.0, 8.0);
}

TEST(Vision, HaarPrototypesValidatePreconditions) {
  EXPECT_THROW((void)satvision::haar_edge_horizontal(3, 8), satutil::CheckError);
  EXPECT_THROW((void)satvision::haar_line_vertical(8, 8), satutil::CheckError);
  EXPECT_THROW((void)satvision::haar_four_square(7, 8), satutil::CheckError);
}

TEST(Vision, TemplateMatchFindsExactPatch) {
  const auto img = Matrix<float>::random(80, 80, 7, 0.0f, 1.0f);
  Matrix<float> templ(12, 16);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 16; ++j) templ(i, j) = img(30 + i, 44 + j);
  const auto matches = satvision::match_template(img, templ, 3);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].row, 30u);
  EXPECT_EQ(matches[0].col, 44u);
  EXPECT_NEAR(matches[0].score, 1.0, 1e-9);
  // Runners-up are genuinely elsewhere (non-maximum suppression).
  for (std::size_t k = 1; k < matches.size(); ++k)
    EXPECT_LT(matches[k].score, matches[0].score);
}

TEST(Vision, TemplateMatchIsInvariantToAffineIntensity) {
  // ZNCC must be invariant to brightness/contrast changes of the window.
  const auto img0 = Matrix<float>::random(60, 60, 8, 0.0f, 1.0f);
  Matrix<float> img = img0;
  for (std::size_t i = 20; i < 30; ++i)
    for (std::size_t j = 20; j < 30; ++j)
      img(i, j) = 3.0f * img0(i, j) + 0.7f;  // scaled+shifted copy region
  Matrix<float> templ(10, 10);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j) templ(i, j) = img0(20 + i, 20 + j);
  const auto matches = satvision::match_template(img, templ, 1);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].row, 20u);
  EXPECT_EQ(matches[0].col, 20u);
  EXPECT_NEAR(matches[0].score, 1.0, 1e-6);
}

TEST(Vision, TemplateMatchRejectsOversizedTemplate) {
  Matrix<float> img(10, 10, 1.0f), templ(20, 20, 1.0f);
  EXPECT_THROW((void)satvision::match_template(img, templ), satutil::CheckError);
}

TEST(Vision, DeviceBoxFilterMatchesHostFilter) {
  const std::size_t n = 128;
  const auto img = Matrix<float>::random(n, n, 12, 0.0f, 1.0f);
  const auto table = table_of(img);
  const auto host = satvision::box_filter(table, 4);

  gpusim::SimContext sim;
  gpusim::GlobalBuffer<double> table_buf(sim, n * n, "table");
  table_buf.upload(std::span(table.data(), table.size()));
  gpusim::GlobalBuffer<float> out_buf(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 32;
  const auto rep = satrepro::run_box_filter_kernel(sim, table_buf, out_buf,
                                                   n, n, 4, p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_NEAR(out_buf[i * n + j], host(i, j), 1e-4) << i << "," << j;
  // One block per tile, halo-read traffic strictly below 4 reads/pixel.
  EXPECT_EQ(rep.grid_blocks, (n / 32) * (n / 32));
  EXPECT_LT(rep.counters.element_reads, 4ull * n * n);
  EXPECT_EQ(rep.counters.element_writes, n * n);
}

TEST(Vision, DeviceBoxFilterCountOnlyMode) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 256;
  gpusim::GlobalBuffer<double> table_buf(sim, n * n, "table");
  gpusim::GlobalBuffer<float> out_buf(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 64;
  const auto rep =
      satrepro::run_box_filter_kernel(sim, table_buf, out_buf, n, n, 7, p);
  EXPECT_GT(rep.counters.element_reads, n * n);  // halo overlap
  EXPECT_GT(rep.critical_path_us, 0.0);
}

}  // namespace
