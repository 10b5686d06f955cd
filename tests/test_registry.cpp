// Tests for the algorithm registry and Table I closed forms.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sat/registry.hpp"

namespace {

using satalgo::Algorithm;

TEST(Registry, NamesAreUniqueAndPaperFaithful) {
  std::set<std::string> names;
  for (auto a : satalgo::all_sat_algorithms())
    EXPECT_TRUE(names.insert(satalgo::name_of(a)).second);
  EXPECT_EQ(names.size(), 7u);
  EXPECT_TRUE(names.count("1R1W-SKSS-LB"));
  EXPECT_TRUE(names.count("(1+r)R1W"));
  EXPECT_TRUE(names.count("2R2W-optimal"));
}

TEST(Registry, TiledSubsetIsConsistent) {
  for (auto a : satalgo::tiled_sat_algorithms()) EXPECT_TRUE(satalgo::is_tiled(a));
  EXPECT_FALSE(satalgo::is_tiled(Algorithm::k2R2W));
  EXPECT_FALSE(satalgo::is_tiled(Algorithm::k2R2WOptimal));
  EXPECT_FALSE(satalgo::is_tiled(Algorithm::kDuplicate));
  EXPECT_EQ(satalgo::tiled_sat_algorithms().size(), 5u);
}

TEST(Registry, TheoryRowsMatchTableOne) {
  const std::size_t n = 4096, w = 64, m = 4;
  // kernel calls
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k2R2W, n, w, m).kernel_calls, 2);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k2R1W, n, w, m).kernel_calls, 3);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k1R1W, n, w, m).kernel_calls,
                   2.0 * n / w - 1);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::kSkss, n, w, m).kernel_calls, 1);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::kSkssLb, n, w, m).kernel_calls, 1);
  // threads
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k2R2W, n, w, m).threads,
                   double(n));
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::kSkss, n, w, m).threads,
                   double(n) * w / m);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::kSkssLb, n, w, m).threads,
                   double(n) * n / m);
  // parallelism classes
  EXPECT_EQ(satalgo::theory_row(Algorithm::k2R2W, n, w, m).parallelism,
            satalgo::Parallelism::kLow);
  EXPECT_EQ(satalgo::theory_row(Algorithm::k1R1W, n, w, m).parallelism,
            satalgo::Parallelism::kMedium);
  EXPECT_EQ(satalgo::theory_row(Algorithm::kSkssLb, n, w, m).parallelism,
            satalgo::Parallelism::kHigh);
  // leading traffic coefficients
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k2R1W, n, w, m).reads_leading, 2);
  EXPECT_DOUBLE_EQ(satalgo::theory_row(Algorithm::k2R1W, n, w, m).writes_leading, 1);
  EXPECT_DOUBLE_EQ(
      satalgo::theory_row(Algorithm::kHybrid, n, w, m, 0.25).reads_leading, 1.25);
}

TEST(Registry, TableOneOrderingInvariants) {
  // n ≤ nW/m ≤ n²/m must hold for every shape (the paper's classification).
  for (std::size_t n : {256ul, 4096ul}) {
    for (std::size_t w : {32ul, 128ul}) {
      for (std::size_t m : {1ul, 16ul}) {
        const double low =
            satalgo::theory_row(Algorithm::k2R2W, n, w, m).threads;
        const double med =
            satalgo::theory_row(Algorithm::kSkss, n, w, m).threads;
        const double high =
            satalgo::theory_row(Algorithm::kSkssLb, n, w, m).threads;
        EXPECT_LE(low, med);
        EXPECT_LE(med, high);
      }
    }
  }
}

TEST(Registry, ParallelismToString) {
  EXPECT_STREQ(satalgo::to_string(satalgo::Parallelism::kLow), "low");
  EXPECT_STREQ(satalgo::to_string(satalgo::Parallelism::kMedium), "medium");
  EXPECT_STREQ(satalgo::to_string(satalgo::Parallelism::kHigh), "high");
}

TEST(Registry, DispatchRunsEveryAlgorithm) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 256;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 32;
  for (auto algo : satalgo::all_sat_algorithms()) {
    const auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
    EXPECT_EQ(run.algorithm, satalgo::name_of(algo));
    EXPECT_GE(run.kernel_calls(), 1u);
  }
}

TEST(Registry, SatParamsM) {
  satalgo::SatParams p;
  p.tile_w = 128;
  p.threads_per_block = 1024;
  EXPECT_EQ(p.m(), 16u);
  p.tile_w = 32;
  EXPECT_EQ(p.m(), 1u);
}

}  // namespace
