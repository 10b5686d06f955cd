// Tests for the performance model: calibration invariants, monotonicity,
// paper-data lookups, and the Table III shape properties at reduced scale.
#include <gtest/gtest.h>

#include "model/paper_data.hpp"
#include "model/predict.hpp"
#include "model/table3.hpp"
#include "sat/registry.hpp"
#include "util/check.hpp"

namespace {

using satalgo::Algorithm;
using satmodel::run_cell;

TEST(PaperData, LookupsMatchTheTable) {
  EXPECT_DOUBLE_EQ(*satmodel::paper_time_ms("duplicate", 0, 32768), 14.7);
  EXPECT_DOUBLE_EQ(*satmodel::paper_time_ms("1R1W-SKSS-LB", 128, 8192), 0.980);
  EXPECT_DOUBLE_EQ(*satmodel::paper_time_ms("2R1W", 64, 256), 0.0161);
  EXPECT_FALSE(satmodel::paper_time_ms("duplicate", 0, 300).has_value());
  EXPECT_FALSE(satmodel::paper_time_ms("nonsense", 0, 256).has_value());
}

TEST(PaperData, BestOverWIsTheRowMinimum) {
  EXPECT_DOUBLE_EQ(*satmodel::paper_best_time_ms("1R1W-SKSS-LB", 32768), 15.8);
  EXPECT_DOUBLE_EQ(*satmodel::paper_best_time_ms("1R1W-SKSS", 256), 0.0298);
}

TEST(PaperData, PaperTableInternallyConsistent) {
  // In the paper, the SAT lower bound holds: no algorithm beats duplication.
  for (std::size_t k = 0; k < satmodel::kPaperSizes.size(); ++k) {
    const double dup = satmodel::kPaperTable3[0].ms[k];
    for (const auto& row : satmodel::kPaperTable3) {
      EXPECT_GE(row.ms[k], dup) << row.algorithm << " at "
                                << satmodel::kPaperSizes[k];
    }
  }
}

TEST(Model, NoAlgorithmBeatsDuplication) {
  // The theoretical lower bound must hold in the model too.
  for (std::size_t n : {512ul, 4096ul}) {
    const double dup =
        run_cell(n, Algorithm::kDuplicate, 64, false).model_ms;
    for (auto algo : satalgo::all_sat_algorithms()) {
      const double ms = run_cell(n, algo, 64, false).model_ms;
      EXPECT_GT(ms, dup) << satalgo::name_of(algo) << " at " << n;
    }
  }
}

TEST(Model, TimeGrowsWithSize) {
  for (auto algo : {Algorithm::kDuplicate, Algorithm::kSkssLb,
                    Algorithm::k2R1W, Algorithm::k2R2W}) {
    double prev = 0;
    for (std::size_t n : {256ul, 1024ul, 4096ul}) {
      const double ms = run_cell(n, algo, 64, false).model_ms;
      EXPECT_GT(ms, prev) << satalgo::name_of(algo) << " at " << n;
      prev = ms;
    }
  }
}

TEST(Model, LargeSizesAreBandwidthBound) {
  // From 4K to 8K the matrix quadruples; a bandwidth-bound duplication must
  // scale by ~4x (not by launch overhead or latency artifacts).
  const double t4 = run_cell(4096, Algorithm::kDuplicate, 64, false).model_ms;
  const double t8 = run_cell(8192, Algorithm::kDuplicate, 64, false).model_ms;
  EXPECT_NEAR(t8 / t4, 4.0, 0.3);
}

TEST(Model, DuplicationCalibrationWithinTenPercentOfPaper) {
  for (std::size_t n : {4096ul, 8192ul, 16384ul, 32768ul}) {
    const auto cell = run_cell(n, Algorithm::kDuplicate, 64, false);
    ASSERT_TRUE(cell.paper_ms.has_value());
    EXPECT_NEAR(cell.model_ms / *cell.paper_ms, 1.0, 0.10) << n;
  }
}

TEST(Model, SkssLbWithinTwentyPercentOfPaperAtLargeSizes) {
  // The headline rows: best-W SKSS-LB at n ≥ 4K.
  for (std::size_t n : {4096ul, 8192ul, 16384ul, 32768ul}) {
    double best_model = 1e300;
    for (std::size_t w : {32ul, 64ul, 128ul})
      best_model =
          std::min(best_model, run_cell(n, Algorithm::kSkssLb, w, false).model_ms);
    const double best_paper = *satmodel::paper_best_time_ms("1R1W-SKSS-LB", n);
    EXPECT_NEAR(best_model / best_paper, 1.0, 0.20) << n;
  }
}

TEST(Model, SkssLbFastestAtEverySizeItClaims) {
  // The paper's headline, at the sizes the test budget affords.
  for (std::size_t n : {256ul, 1024ul, 4096ul}) {
    auto best = [&](Algorithm algo) {
      double b = 1e300;
      if (satalgo::is_tiled(algo)) {
        for (std::size_t w : {32ul, 64ul, 128ul})
          b = std::min(b, run_cell(n, algo, w, false).model_ms);
      } else {
        b = run_cell(n, algo, 64, false).model_ms;
      }
      return b;
    };
    const double lb = best(Algorithm::kSkssLb);
    for (auto algo : satalgo::all_sat_algorithms()) {
      if (algo == Algorithm::kSkssLb) continue;
      EXPECT_LE(lb, best(algo)) << satalgo::name_of(algo) << " at " << n;
    }
  }
}

TEST(Model, OverheadPct) {
  EXPECT_DOUBLE_EQ(satmodel::overhead_pct(2.0, 1.0), 100.0);
  EXPECT_NEAR(satmodel::overhead_pct(1.057, 1.0), 5.7, 1e-9);
}

TEST(Model, CellCarriesCountersAndMetadata) {
  const auto cell = run_cell(1024, Algorithm::kSkssLb, 64, false);
  EXPECT_EQ(cell.kernel_calls, 1u);
  EXPECT_EQ(cell.tile_w, 64u);
  EXPECT_GE(cell.totals.element_reads, 1024u * 1024u);
  EXPECT_GT(cell.max_threads, 0u);
  EXPECT_TRUE(cell.paper_ms.has_value());
}

TEST(Model, EmptyShapeIsRefused) {
  // n = 0 is a CheckError for every algorithm, never a zero-tile grid that
  // a kernel divides by or indexes into.
  for (auto algo : satalgo::all_sat_algorithms()) {
    EXPECT_THROW((void)run_cell(0, algo, 64, false), satutil::CheckError)
        << satalgo::name_of(algo);
  }
}

TEST(Model, FunctionalAndCountOnlyCellsAgree) {
  const auto f = run_cell(512, Algorithm::kSkssLb, 64, true);
  const auto c = run_cell(512, Algorithm::kSkssLb, 64, false);
  EXPECT_DOUBLE_EQ(f.model_ms, c.model_ms);
  EXPECT_EQ(f.totals.element_reads, c.totals.element_reads);
}

}  // namespace
