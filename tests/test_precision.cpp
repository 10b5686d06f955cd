// Floating-point behaviour of the SAT pipeline: accumulation-error growth,
// tile-decomposition error vs the sequential order, integer wraparound
// semantics — the numerical properties a 4-byte-float SAT user (the paper's
// setting) needs to know.
#include <gtest/gtest.h>

#include <cmath>

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "repro/repro.hpp"
#include "util/rng.hpp"

namespace {

using sat::Matrix;

/// Max relative error of a float SAT against the double reference.
double max_rel_error_vs_double(const Matrix<float>& input,
                               const Matrix<float>& table) {
  Matrix<double> in_d(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.rows(); ++i)
    for (std::size_t j = 0; j < input.cols(); ++j) in_d(i, j) = input(i, j);
  Matrix<double> ref(input.rows(), input.cols());
  sathost::sat_sequential<double>(in_d.view(), ref.view());
  double worst = 0;
  for (std::size_t i = 0; i < input.rows(); ++i)
    for (std::size_t j = 0; j < input.cols(); ++j) {
      const double scale = std::max(1.0, std::abs(ref(i, j)));
      worst = std::max(worst, std::abs(table(i, j) - ref(i, j)) / scale);
    }
  return worst;
}

TEST(Precision, FloatErrorStaysTinyForPaperSizedWorkloads) {
  // Uniform [0,1) floats: at 512² the running totals reach ~1.3e5; float has
  // ~7 decimal digits, so relative error must stay ≲ 1e-4 per the standard
  // error growth of summation. (This is why the paper can use 4-byte floats
  // at 32K² at all: relative error grows ~√(n²) for random signs but only
  // the *relative* error matters for region sums of comparable scale.)
  const auto input = Matrix<float>::random(512, 512, 3, 0.0f, 1.0f);
  const auto result = satrepro::compute_sat(input, [] {
    satrepro::Options o;
    o.params.tile_w = 64;
    return o;
  }());
  EXPECT_LT(max_rel_error_vs_double(input, result.table), 1e-4);
}

TEST(Precision, TiledAccumulationIsNoWorseThanSequentialOrder) {
  // Tiled algorithms sum in a different association order; their error
  // must be of the same magnitude as the sequential float SAT's.
  const auto input = Matrix<float>::random(256, 256, 11, 0.0f, 1.0f);
  Matrix<float> seq(256, 256);
  sathost::sat_sequential<float>(input.view(), seq.view());
  const double seq_err = max_rel_error_vs_double(input, seq);
  for (auto algo : {satalgo::Algorithm::kSkssLb, satalgo::Algorithm::k2R1W,
                    satalgo::Algorithm::k2R2WOptimal}) {
    satrepro::Options o;
    o.algorithm = algo;
    o.params.tile_w = 32;
    const auto result = satrepro::compute_sat(input, o);
    const double err = max_rel_error_vs_double(input, result.table);
    EXPECT_LT(err, 10 * seq_err + 1e-6) << satalgo::name_of(algo);
  }
}

TEST(Precision, ErrorGrowsSublinearlyWithSize) {
  // Relative error at 4× the elements should grow far less than 4× —
  // random-sign cancellation keeps it near √ growth.
  double err_small = 0, err_large = 0;
  for (auto [n, out] : {std::pair<std::size_t, double*>{128, &err_small},
                        std::pair<std::size_t, double*>{512, &err_large}}) {
    const auto input = Matrix<float>::random(n, n, 5, 0.0f, 1.0f);
    const auto result = satrepro::compute_sat(input, [] {
      satrepro::Options o;
      o.params.tile_w = 64;
      return o;
    }());
    *out = max_rel_error_vs_double(input, result.table);
  }
  EXPECT_LT(err_large, 16 * err_small + 1e-7);
}

/// u8-valued random float matrix (integer values 0..255) and its exact
/// i64 SAT — the workload for the f32 divergence boundary tests.
struct U8Workload {
  Matrix<float> input;
  Matrix<std::int64_t> oracle;
  explicit U8Workload(std::size_t n) : input(n, n), oracle(n, n) {
    satutil::Rng rng(101);
    Matrix<std::int64_t> wide(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const auto v = rng.next_below(256);
        input(i, j) = static_cast<float>(v);
        wide(i, j) = static_cast<std::int64_t>(v);
      }
    sathost::sat_sequential<std::int64_t>(wide.view(), oracle.view());
  }
};

TEST(Precision, PlainF32SatDivergesAtThe2p24Boundary) {
  // f32 has a 24-bit significand: integers are represented exactly up to
  // 2^24 = 16 777 216, and every partial sum of a u8-valued SAT below that
  // is an exactly-representable integer, so the plain f32 table is BIT-
  // EXACT — until the running totals cross 2^24 and odd integers stop
  // existing in f32. With mean 127.5 the corner sum n²·127.5 crosses 2^24
  // at n ≈ 363, so scanning n = 256..512 step 8 must pin the first
  // divergent size at 368 (the first scan point past the boundary; seed-
  // stable because divergence is forced as soon as a true cell value lands
  // on a non-representable integer, which happens within a handful of
  // cells of crossing).
  std::size_t first_divergent = 0;
  for (std::size_t n = 256; n <= 512 && first_divergent == 0; n += 8) {
    const U8Workload wl(n);
    Matrix<float> plain(n, n);
    sathost::sat_sequential<float>(wl.input.view(), plain.view());
    for (std::size_t i = 0; i < n && first_divergent == 0; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (static_cast<std::int64_t>(plain(i, j)) != wl.oracle(i, j)) {
          first_divergent = n;
          break;
        }
  }
  ASSERT_NE(first_divergent, 0u) << "no divergence up to 512 — boundary "
                                    "reasoning broken";
  // Theoretical floor: every value is ≤ 255, so no cell can reach 2^24
  // before n² · 255 > 2^24, i.e. n > 256.
  EXPECT_GT(first_divergent, 256u);
  EXPECT_EQ(first_divergent, 368u);
}

TEST(Precision, KahanF32StaysCorrectlyRoundedPastTheBoundary) {
  // 2048² is far past the divergence size pinned above (the corner sum is
  // ~2^29). The compensated scans cannot beat the f32 representation — an
  // odd integer above 2^24 still has no f32 encoding — but they must stay
  // within 1 ulp of the exact value (the compensation term carries what
  // the naive accumulation drops), whatever engine, worker count or tile
  // width the options name, through both the single-image and the batch
  // entry point.
  const std::size_t n = 2048;
  const U8Workload wl(n);
  Matrix<float> plain(n, n);
  sathost::sat_sequential<float>(wl.input.view(), plain.view());
  auto worst_ulps = [&](const Matrix<float>& table) {
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const double exact = static_cast<double>(wl.oracle(i, j));
        const double ulp =
            std::abs(static_cast<double>(
                std::nextafterf(plain(i, j), HUGE_VALF) - plain(i, j)));
        worst = std::max(worst,
                         std::abs(static_cast<double>(table(i, j)) - exact) /
                             std::max(1.0, ulp));
      }
    return worst;
  };
  const double plain_worst = worst_ulps(plain);
  // The scalar reference. Row prefixes of u8 input stay below 2^24, so
  // the vectorized sweep performs the same compensated column folds and
  // must match it bit for bit.
  Matrix<float> reference(n, n);
  sathost::sat_sequential_kahan<float>(wl.input.view(), reference.view());
  EXPECT_LE(worst_ulps(reference), 1.0);

  for (sat::CpuEngine engine : {sat::CpuEngine::kSequential,
                                sat::CpuEngine::kSimd,
                                sat::CpuEngine::kSkssLb}) {
    for (std::size_t tile_w : {std::size_t{0}, std::size_t{64}}) {
      sat::Options o;
      o.cpu_engine = engine;
      o.cpu_threads = 4;
      o.cpu_tile_w = tile_w;
      o.storage = sat::Storage::kKahanF32;
      const Matrix<float> single = sat::compute_sat(wl.input, o).table;
      Matrix<float> batched(n, n);
      (void)sat::compute_sat_batch_into<float>({wl.input.view()},
                                               {batched.view()}, o);
      const Matrix<float>* tables[] = {&single, &batched};
      for (const Matrix<float>* kah : tables) {
        const double kahan_worst = worst_ulps(*kah);
        EXPECT_LE(kahan_worst, 1.0)
            << "engine " << static_cast<int>(engine) << " w=" << tile_w
            << (kah == &batched ? " batch" : " single")
            << ": compensated scan drifted past 1 ulp";
        // The naive table is meaningfully worse by the same yardstick.
        EXPECT_GT(plain_worst, 4 * kahan_worst);
        EXPECT_TRUE(*kah == reference);
      }
    }
  }
}

TEST(Precision, UnsignedWraparoundIsWellDefinedAndConsistent) {
  // uint32 overflow wraps mod 2^32 in both the oracle and the simulated
  // pipeline — region sums of wrapped tables still reconstruct exactly.
  const std::size_t n = 64;
  auto input = Matrix<std::uint32_t>::random(n, n, 9, 0u, 0xF0000000u);
  satrepro::Options o;
  o.params.tile_w = 32;
  const auto result = satrepro::compute_sat(input, o);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  // Region reconstruction under wraparound: brute sum mod 2^32 matches.
  std::uint32_t brute = 0;
  for (std::size_t i = 10; i < 30; ++i)
    for (std::size_t j = 5; j < 25; ++j) brute += input(i, j);
  EXPECT_EQ(sat::region_sum(result.table, {10, 5, 30, 25}), brute);
}

TEST(Precision, DoubleSatIsExactForIntegerValuedInputs) {
  // Doubles represent integers ≤ 2^53 exactly; an integer-valued double
  // workload must produce bit-exact SATs through every algorithm.
  const std::size_t n = 128;
  Matrix<double> input(n, n);
  satutil::Rng rng(13);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      input(i, j) = double(rng.next_below(1000));
  for (auto algo : {satalgo::Algorithm::kSkssLb, satalgo::Algorithm::kSkss}) {
    satrepro::Options o;
    o.algorithm = algo;
    o.params.tile_w = 64;
    const auto result = satrepro::compute_sat(input, o);
    Matrix<double> ref(n, n);
    sathost::sat_sequential<double>(input.view(), ref.view());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(result.table(i, j), ref(i, j)) << satalgo::name_of(algo);
  }
}

}  // namespace
