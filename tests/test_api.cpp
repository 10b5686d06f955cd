// Tests for the public API: compute_sat on the host engines and on the
// simulated device (satrepro), region queries, validation, and option
// handling.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "repro/repro.hpp"
#include "util/rng.hpp"

namespace {

using sat::Matrix;
using sat::Options;
using sat::Rect;

/// Runs `ins` through one of the three dense-result CPU entry points
/// (0: compute_sat per image, 1: compute_sat_batch, 2:
/// compute_sat_batch_into) and returns the tables.
template <class T>
std::vector<Matrix<T>> run_dense_entry(int entry,
                                       const std::vector<Matrix<T>>& ins,
                                       const Options& o) {
  if (entry == 1) return sat::compute_sat_batch(ins, o).tables;
  std::vector<Matrix<T>> outs;
  for (const auto& m : ins) {
    if (entry == 0) outs.push_back(sat::compute_sat(m, o).table);
    else outs.emplace_back(m.rows(), m.cols());
  }
  if (entry == 2) {
    std::vector<satutil::Span2d<const T>> srcs;
    std::vector<satutil::Span2d<T>> dsts;
    for (std::size_t k = 0; k < ins.size(); ++k) {
      srcs.push_back(ins[k].view());
      dsts.push_back(outs[k].view());
    }
    (void)sat::compute_sat_batch_into<T>(srcs, dsts, o);
  }
  return outs;
}

// Every CPU engine × storage mode × CPU entry point, over degenerate and
// ragged shapes. i32 dense and residual tables are bit-exact against
// sat_sequential; u8-valued f32 Kahan tables are within 1 ulp of an exact
// i64 oracle; Kahan on i32 is rejected; compute_sat_tiled (which ignores
// Options::storage: it is the residual mode) keeps cpu_tile_w as its tile
// width whatever the engine.
TEST(Api, CpuDispatchMatrix) {
  using sat::CpuEngine;
  using sat::Storage;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 100}, {100, 1}, {33, 97}, {130, 70}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<Matrix<std::int32_t>> ins, refs;
    std::vector<Matrix<float>> ins_f;
    std::vector<Matrix<std::int64_t>> exact;
    for (std::uint64_t k = 0; k < 2; ++k) {
      ins.push_back(Matrix<std::int32_t>::random(rows, cols, 40 + k, 0, 255));
      refs.emplace_back(rows, cols);
      sathost::sat_sequential<std::int32_t>(ins[k].view(), refs[k].view());
      ins_f.emplace_back(rows, cols);
      Matrix<std::int64_t> wide(rows, cols);
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) {
          ins_f[k](i, j) = static_cast<float>(ins[k](i, j));
          wide(i, j) = ins[k](i, j);
        }
      exact.emplace_back(rows, cols);
      sathost::sat_sequential<std::int64_t>(wide.view(), exact[k].view());
    }
    for (CpuEngine engine :
         {CpuEngine::kSequential, CpuEngine::kSimd, CpuEngine::kSkssLb}) {
      for (Storage storage : {Storage::kDense, Storage::kTiledResidual,
                              Storage::kKahanF32}) {
        for (std::size_t tile_w : {std::size_t{0}, std::size_t{32}}) {
          Options o;
          o.cpu_engine = engine;
          o.cpu_threads = 3;
          o.cpu_tile_w = tile_w;
          o.storage = storage;
          const std::string where =
              std::to_string(rows) + "x" + std::to_string(cols) +
              " engine=" + std::to_string(static_cast<int>(engine)) +
              " storage=" + std::to_string(static_cast<int>(storage)) +
              " w=" + std::to_string(tile_w);
          for (int entry = 0; entry < 3; ++entry) {
            if (storage == Storage::kKahanF32) {
              EXPECT_THROW((void)run_dense_entry(entry, ins, o),
                           satutil::CheckError)
                  << where << " entry=" << entry;
              const auto got = run_dense_entry(entry, ins_f, o);
              for (std::size_t k = 0; k < ins.size(); ++k)
                for (std::size_t i = 0; i < rows; ++i)
                  for (std::size_t j = 0; j < cols; ++j) {
                    const float e = static_cast<float>(exact[k](i, j));
                    const double ulp = std::nextafterf(e, HUGE_VALF) - e;
                    ASSERT_LE(std::abs(static_cast<double>(got[k](i, j)) -
                                       static_cast<double>(exact[k](i, j))),
                              ulp)
                        << where << " entry=" << entry << " @" << i << ","
                        << j;
                  }
            } else {
              const auto got = run_dense_entry(entry, ins, o);
              for (std::size_t k = 0; k < ins.size(); ++k)
                ASSERT_EQ(got[k], refs[k]) << where << " entry=" << entry;
            }
          }
          const auto tiled = sat::compute_sat_tiled(ins[0], o);
          EXPECT_EQ(tiled.table.tile_w(),
                    tile_w != 0 ? tile_w : sat::kDefaultResidualTileW)
              << where;
          for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j)
              ASSERT_EQ(tiled.table.value(i, j), refs[0](i, j))
                  << where << " tiled @" << i << "," << j;
        }
      }
    }
  }
}

TEST(Api, DefaultOptionsRunTheHostEngine) {
  const auto input = Matrix<std::int32_t>::random(256, 256, 1, 0, 100);
  const auto result = sat::compute_sat(input);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  EXPECT_EQ(result.stats.algorithm, "cpu-skss-lb");
}

// The reproduction entry's defaults are the paper's best configuration.
TEST(Api, DefaultOptionsComputeCorrectSat) {
  const auto input = Matrix<std::int32_t>::random(256, 256, 1, 0, 100);
  const auto result = satrepro::compute_sat(input);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  EXPECT_EQ(result.stats.algorithm, "1R1W-SKSS-LB");
  EXPECT_EQ(result.stats.kernel_calls, 1u);
  EXPECT_GE(result.stats.element_reads, 256u * 256u);
  EXPECT_GT(result.stats.critical_path_us, 0.0);
}

TEST(Api, EveryAlgorithmThroughTheApi) {
  const auto input = Matrix<std::int32_t>::random(128, 128, 2, 0, 50);
  for (auto algo : satalgo::all_sat_algorithms()) {
    satrepro::Options opts;
    opts.algorithm = algo;
    opts.params.tile_w = 32;
    const auto result = satrepro::compute_sat(input, opts);
    EXPECT_FALSE(sat::validate_sat(input, result.table).has_value())
        << satalgo::name_of(algo);
  }
}

TEST(Api, CpuBackend) {
  const auto input = Matrix<float>::random(100, 180, 3, 0.0f, 1.0f);
  Options opts;
  opts.cpu_threads = 3;
  const auto result = sat::compute_sat(input, opts);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  EXPECT_EQ(result.stats.algorithm, "cpu-skss-lb");  // the default engine
}

TEST(Api, NonSquareShapesArePaddedInternally) {
  const auto input = Matrix<std::int32_t>::random(64, 200, 8, 0, 9);
  satrepro::Options opts;
  opts.params.tile_w = 64;
  const auto result = satrepro::compute_sat(input, opts);
  EXPECT_EQ(result.table.rows(), 64u);
  EXPECT_EQ(result.table.cols(), 200u);
  EXPECT_EQ(result.stats.padded_n, 256u);  // ceil(200/64)*64
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
}

TEST(Api, NonTileMultipleIsPaddedInternally) {
  const auto input = Matrix<std::int32_t>::random(100, 100, 9, 0, 9);
  satrepro::Options opts;
  opts.params.tile_w = 64;
  const auto result = satrepro::compute_sat(input, opts);
  EXPECT_EQ(result.stats.padded_n, 128u);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
}

TEST(Api, PaddingWorksForEveryAlgorithm) {
  const auto input = Matrix<std::int32_t>::random(70, 90, 10, 0, 9);
  for (auto algo : satalgo::all_sat_algorithms()) {
    satrepro::Options opts;
    opts.algorithm = algo;
    opts.params.tile_w = 32;
    const auto result = satrepro::compute_sat(input, opts);
    EXPECT_FALSE(sat::validate_sat(input, result.table).has_value())
        << satalgo::name_of(algo);
  }
}

TEST(Api, InclusiveScanMatchesSerial) {
  std::vector<std::int64_t> v(10000);
  satutil::Rng rng(4);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(100));
  const auto got = satrepro::inclusive_scan(v);
  std::int64_t run = 0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    run += v[k];
    ASSERT_EQ(got[k], run) << k;
  }
  EXPECT_TRUE(satrepro::inclusive_scan(std::vector<std::int64_t>{}).empty());
}

TEST(Api, AutoTunePicksAReasonableConfig) {
  const auto opts = satrepro::auto_tune(2048, 2048);
  // At 2K the model must keep a single-kernel algorithm with a large tile.
  EXPECT_TRUE(opts.algorithm == satalgo::Algorithm::kSkssLb ||
              opts.algorithm == satalgo::Algorithm::kSkss);
  EXPECT_GE(opts.params.tile_w, 64u);
  // And the tuned config must actually work.
  const auto input = Matrix<std::int32_t>::random(512, 512, 11, 0, 9);
  const auto result =
      satrepro::compute_sat(input, satrepro::auto_tune(512, 512));
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
}

TEST(Api, RejectsEmpty) {
  const Matrix<float> input;
  EXPECT_THROW((void)sat::compute_sat(input), satutil::CheckError);
  EXPECT_THROW((void)satrepro::compute_sat(input), satutil::CheckError);
}

TEST(Api, ValidateSatCatchesCorruption) {
  const auto input = Matrix<std::int32_t>::random(64, 64, 4, 0, 9);
  auto result = satrepro::compute_sat(input, [] {
    satrepro::Options o;
    o.params.tile_w = 32;
    return o;
  }());
  ASSERT_FALSE(sat::validate_sat(input, result.table).has_value());
  result.table(10, 10) += 1;
  const auto err = sat::validate_sat(input, result.table);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("(10,10)"), std::string::npos);
}

TEST(RegionSum, MatchesBruteForceOnRandomRects) {
  const std::size_t n = 96;
  const auto input = Matrix<std::int64_t>::random(n, n, 5, 0, 20);
  Matrix<std::int64_t> table(n, n);
  sathost::sat_sequential<std::int64_t>(input.view(), table.view());

  satutil::Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    std::size_t r0 = rng.next_below(n), r1 = rng.next_below(n + 1);
    std::size_t c0 = rng.next_below(n), c1 = rng.next_below(n + 1);
    if (r0 > r1) std::swap(r0, r1);
    if (c0 > c1) std::swap(c0, c1);
    std::int64_t brute = 0;
    for (std::size_t i = r0; i < r1; ++i)
      for (std::size_t j = c0; j < c1; ++j) brute += input(i, j);
    EXPECT_EQ(sat::region_sum(table, Rect{r0, c0, r1, c1}), brute);
  }
}

TEST(RegionSum, EmptyRectIsZero) {
  Matrix<std::int64_t> table(4, 4, 1);
  EXPECT_EQ(sat::region_sum(table, Rect{2, 2, 2, 3}), 0);
}

TEST(RegionSum, WholeMatrixIsBottomRightEntry) {
  const auto input = Matrix<std::int64_t>::random(32, 32, 6, 0, 9);
  Matrix<std::int64_t> table(32, 32);
  sathost::sat_sequential<std::int64_t>(input.view(), table.view());
  EXPECT_EQ(sat::region_sum(table, Rect{0, 0, 32, 32}), table(31, 31));
}

TEST(RegionSum, OutOfBoundsThrows) {
  Matrix<std::int64_t> table(4, 4, 1);
  EXPECT_THROW((void)sat::region_sum(table, Rect{0, 0, 5, 4}),
               satutil::CheckError);
}

TEST(RegionMean, AveragesCorrectly) {
  Matrix<std::int64_t> input(4, 4, 3);
  Matrix<std::int64_t> table(4, 4);
  sathost::sat_sequential<std::int64_t>(input.view(), table.view());
  EXPECT_DOUBLE_EQ(sat::region_mean(table, Rect{1, 1, 3, 4}), 3.0);
}

}  // namespace
