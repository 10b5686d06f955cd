// Tests for the rectangular (rows ≠ cols) generalization: grid geometry,
// serial numbering invariants, and end-to-end correctness of every
// natively-rectangular algorithm against the CPU oracle.
#include <gtest/gtest.h>

#include <set>
#include <span>

#include "core/api.hpp"
#include "core/matrix.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "repro/repro.hpp"
#include "sat/registry.hpp"
#include "util/check.hpp"

namespace {

using gpusim::GlobalBuffer;
using gpusim::SimContext;
using sat::Matrix;
using satalgo::Algorithm;
using satalgo::SatParams;
using satalgo::TileGrid;

class RectGrid
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RectGrid, SerialNumberingIsADiagonalMajorBijection) {
  const auto [gr, gc] = GetParam();
  TileGrid grid(gr * 32, gc * 32, 32);
  EXPECT_EQ(grid.g_rows(), gr);
  EXPECT_EQ(grid.g_cols(), gc);
  std::set<std::size_t> seen;
  std::size_t prev_d = 0;
  for (std::size_t s = 0; s < grid.count(); ++s) {
    const auto [ti, tj] = grid.tile_of_serial(s);
    EXPECT_LT(ti, gr);
    EXPECT_LT(tj, gc);
    EXPECT_EQ(grid.serial(ti, tj), s);
    EXPECT_TRUE(seen.insert(ti * gc + tj).second);
    EXPECT_GE(ti + tj, prev_d);  // diagonal-major
    prev_d = ti + tj;
  }
  EXPECT_EQ(seen.size(), gr * gc);
}

TEST_P(RectGrid, LookBackDependenciesPointBackwards) {
  const auto [gr, gc] = GetParam();
  TileGrid grid(gr * 32, gc * 32, 32);
  for (std::size_t i = 0; i < gr; ++i)
    for (std::size_t j = 0; j < gc; ++j) {
      const std::size_t s = grid.serial(i, j);
      for (std::size_t jj = 0; jj < j; ++jj)
        EXPECT_LT(grid.serial(i, jj), s);
      for (std::size_t ii = 0; ii < i; ++ii)
        EXPECT_LT(grid.serial(ii, j), s);
      for (std::size_t k = 1; k <= std::min(i, j); ++k)
        EXPECT_LT(grid.serial(i - k, j - k), s);
    }
}

TEST_P(RectGrid, DiagonalSizesSumToCount) {
  const auto [gr, gc] = GetParam();
  TileGrid grid(gr * 32, gc * 32, 32);
  std::size_t total = 0;
  for (std::size_t d = 0; d < grid.diagonal_count(); ++d)
    total += grid.diagonal_size(d);
  EXPECT_EQ(total, grid.count());
}

INSTANTIATE_TEST_SUITE_P(Shapes, RectGrid,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 7},
                                           std::pair<std::size_t, std::size_t>{7, 1},
                                           std::pair<std::size_t, std::size_t>{3, 5},
                                           std::pair<std::size_t, std::size_t>{8, 2},
                                           std::pair<std::size_t, std::size_t>{5, 5}),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(RectGrid, SquareGridStillMatchesFigure9) {
  const std::size_t expect[5][5] = {{0, 1, 3, 6, 10},
                                    {2, 4, 7, 11, 15},
                                    {5, 8, 12, 16, 19},
                                    {9, 13, 17, 20, 22},
                                    {14, 18, 21, 23, 24}};
  TileGrid grid(5 * 32, 5 * 32, 32);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_EQ(grid.serial(i, j), expect[i][j]);
}

// --- End-to-end correctness on rectangular matrices ------------------------

struct RectCase {
  Algorithm algo;
  std::size_t rows, cols, w;
};

class RectAlgorithms : public ::testing::TestWithParam<RectCase> {};

TEST_P(RectAlgorithms, MatchesOracleExactly) {
  const auto& c = GetParam();
  SimContext sim;
  const auto input =
      Matrix<std::int32_t>::random(c.rows, c.cols, c.rows * 31 + c.cols, 0, 99);
  Matrix<std::int32_t> ref(c.rows, c.cols);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());

  GlobalBuffer<std::int32_t> a(sim, c.rows * c.cols, "in"),
      b(sim, c.rows * c.cols, "out");
  a.upload(std::span(input.data(), input.size()));
  SatParams p;
  p.tile_w = c.w;
  (void)satalgo::run_algorithm(sim, c.algo, a, b, c.rows, c.cols, p);
  for (std::size_t i = 0; i < c.rows; ++i)
    for (std::size_t j = 0; j < c.cols; ++j)
      ASSERT_EQ(b[i * c.cols + j], ref(i, j)) << i << "," << j;
}

std::vector<RectCase> rect_cases() {
  std::vector<RectCase> cases;
  const Algorithm algos[] = {Algorithm::k2R2W,   Algorithm::k2R2WOptimal,
                             Algorithm::k2R1W,   Algorithm::k1R1W,
                             Algorithm::kHybrid, Algorithm::kSkss,
                             Algorithm::kSkssLb};
  for (Algorithm algo : algos) {
    cases.push_back({algo, 64, 320, 32});   // wide
    cases.push_back({algo, 320, 64, 32});   // tall
    cases.push_back({algo, 128, 384, 64});  // wide, larger tiles
  }
  cases.push_back({Algorithm::kSkssLb, 32, 1024, 32});  // single tile row
  cases.push_back({Algorithm::kSkssLb, 1024, 32, 32});  // single tile column
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RectAlgorithms,
                         ::testing::ValuesIn(rect_cases()),
                         [](const auto& param_info) {
                           std::string name =
                               satalgo::name_of(param_info.param.algo);
                           for (char& ch : name)
                             if (!isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name + "_" + std::to_string(param_info.param.rows) +
                                  "x" + std::to_string(param_info.param.cols) + "_w" +
                                  std::to_string(param_info.param.w);
                         });

TEST(RectAlgorithms, SkssLbRectUnderAdversarialDispatch) {
  const std::size_t rows = 96, cols = 288;
  const auto input = Matrix<std::int32_t>::random(rows, cols, 17, 0, 9);
  Matrix<std::int32_t> ref(rows, cols);
  sathost::sat_sequential<std::int32_t>(input.view(), ref.view());
  for (auto order : {gpusim::AssignmentOrder::Reversed,
                     gpusim::AssignmentOrder::Random}) {
    SimContext sim(gpusim::DeviceConfig::tiny(1, 1));
    GlobalBuffer<std::int32_t> a(sim, rows * cols, "in"),
        b(sim, rows * cols, "out");
    a.upload(std::span(input.data(), input.size()));
    SatParams p;
    p.tile_w = 32;
    p.order = order;
    p.seed = 5;
    (void)satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, rows, cols,
                                 p);
    for (std::size_t k = 0; k < rows * cols; ++k)
      ASSERT_EQ(b[k], ref(k / cols, k % cols)) << gpusim::to_string(order);
  }
}

TEST(RectAlgorithms, EmptyShapeIsRefused) {
  for (auto algo : satalgo::all_sat_algorithms()) {
    for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{0, 64},
                              std::pair<std::size_t, std::size_t>{64, 0}}) {
      SimContext sim;
      GlobalBuffer<std::int32_t> a(sim, 0, "in"), b(sim, 0, "out");
      EXPECT_THROW((void)satalgo::run_algorithm(sim, algo, a, b, rows, cols),
                   satutil::CheckError)
          << satalgo::name_of(algo) << " " << rows << "x" << cols;
    }
  }
}

TEST(RectAlgorithms, HybridRegionsCorrectOnExtremeAspectRatios) {
  // 2×12 and 12×2 tile grids: region clamping (s ≤ min(gr,gc)−1 = 1) and
  // the B band spanning almost everything.
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{64, 384},
                            std::pair<std::size_t, std::size_t>{384, 64}}) {
    SimContext sim;
    const auto input = Matrix<std::int32_t>::random(rows, cols, 13, 0, 9);
    Matrix<std::int32_t> ref(rows, cols);
    sathost::sat_sequential<std::int32_t>(input.view(), ref.view());
    GlobalBuffer<std::int32_t> a(sim, rows * cols, "in"),
        b(sim, rows * cols, "out");
    a.upload(std::span(input.data(), input.size()));
    SatParams p;
    p.tile_w = 32;
    p.hybrid_r = 0.25;
    (void)satalgo::run_algorithm(sim, Algorithm::kHybrid, a, b, rows, cols,
                                 p);
    for (std::size_t k = 0; k < rows * cols; ++k)
      ASSERT_EQ(b[k], ref(k / cols, k % cols)) << rows << "x" << cols;
  }
}

TEST(RectAlgorithms, ApiUsesNativeRectangularPath) {
  // 64×200 with W=64 pads to 64×256 (not 256×256) for rect-native
  // algorithms: less traffic than square padding.
  const auto input = Matrix<std::int32_t>::random(64, 200, 21, 0, 9);
  satrepro::Options opts;
  opts.params.tile_w = 64;
  opts.algorithm = Algorithm::kSkssLb;
  const auto result = satrepro::compute_sat(input, opts);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  EXPECT_LE(result.stats.element_reads, 2u * 64 * 256);  // rect, not square
}

}  // namespace
