// Differential tests: the vectorized single-pass engine (sat_simd) against
// the scalar oracle (sat_sequential), over sizes bracketing every vector
// remainder case, all four natively vectorized element types, and unaligned
// row strides.
//
// All inputs are integer-valued, so every partial sum is exactly
// representable even in float and the comparison is bit-exact regardless of
// how the SIMD scan associates the additions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_simd.hpp"
#include "util/rng.hpp"
#include "util/span2d.hpp"

namespace {

template <class T>
class SatSimdDifferential : public ::testing::Test {};

using SatTypes = ::testing::Types<float, double, std::int32_t, std::uint32_t>;
TYPED_TEST_SUITE(SatSimdDifferential, SatTypes);

/// A rows×cols matrix with an over-wide row stride and a base pointer
/// offset by one element, so no row of the view is 32-byte aligned.
template <class T>
struct StridedBuffer {
  StridedBuffer(std::size_t rows, std::size_t cols, std::size_t pad)
      : stride(cols + pad), storage(rows * stride + 1, T{}) {}
  [[nodiscard]] satutil::Span2d<T> view(std::size_t rows, std::size_t cols) {
    return {storage.data() + 1, rows, cols, stride};
  }
  std::size_t stride;
  std::vector<T> storage;
};

template <class T>
void fill_random_integers(satutil::Span2d<T> m, std::uint64_t seed,
                          int hi = 4) {
  // Values in [0, hi]: at the default 4 a 1031² SAT tops out near 4.3M,
  // well inside float's 2^24 exact-integer range.
  satutil::Rng rng(seed);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = static_cast<T>(rng.uniform<int>(0, hi));
}

template <class T>
void expect_equal(satutil::Span2d<const T> got, satutil::Span2d<const T> ref,
                  const char* what) {
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(got(i, j), ref(i, j))
          << what << " at (" << i << ", " << j << ")";
}

constexpr std::size_t kSizes[] = {1, 7, 31, 32, 33, 255, 1024, 1031};

TYPED_TEST(SatSimdDifferential, MatchesSequentialDense) {
  using T = TypeParam;
  for (std::size_t n : kSizes) {
    sat::Matrix<T> a(n, n), ref(n, n), got(n, n);
    fill_random_integers<T>(a.view(), 11 * n + 1);
    sathost::sat_sequential<T>(a.view(), ref.view());
    sathost::sat_simd<T>(a.view(), got.view());
    expect_equal<T>(got.view(), ref.view(), "dense");
  }
}

TYPED_TEST(SatSimdDifferential, MatchesSequentialUnalignedStrided) {
  using T = TypeParam;
  for (std::size_t n : kSizes) {
    // Odd pads keep every row start misaligned relative to the previous one.
    StridedBuffer<T> src(n, n, 3), dst(n, n, 5);
    fill_random_integers<T>(src.view(n, n), 13 * n + 7);
    sat::Matrix<T> ref(n, n);
    sathost::sat_sequential<T>(src.view(n, n), ref.view());
    sathost::sat_simd<T>(src.view(n, n), dst.view(n, n));
    expect_equal<T>(dst.view(n, n), ref.view(), "strided");
  }
}

TYPED_TEST(SatSimdDifferential, MatchesSequentialRectangular) {
  using T = TypeParam;
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 100},
                            std::pair<std::size_t, std::size_t>{100, 1},
                            std::pair<std::size_t, std::size_t>{33, 97},
                            std::pair<std::size_t, std::size_t>{130, 70}}) {
    sat::Matrix<T> a(rows, cols), ref(rows, cols), got(rows, cols);
    fill_random_integers<T>(a.view(), rows * 1000 + cols);
    sathost::sat_sequential<T>(a.view(), ref.view());
    sathost::sat_simd<T>(a.view(), got.view());
    expect_equal<T>(got.view(), ref.view(), "rect");
  }
}

TYPED_TEST(SatSimdDifferential, RegisterBlockedKernelsBitEqualChained1Row) {
  // The 4-deep register-blocked sweep must be bit-equal to chained
  // simd_row_scan_acc calls — the SKSS-LB engine mixes both inside one tile
  // (4-row blocks, then a 1-row tail), which is only exact if association
  // order is identical across depths. Float is the interesting type here:
  // any reassociation shows up as a bit flip.
  using T = TypeParam;
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                        std::size_t{33}, std::size_t{255}, std::size_t{1024}}) {
    constexpr std::size_t kRows = 8;
    sat::Matrix<T> src(kRows, n), ref(kRows, n), got4(kRows, n);
    fill_random_integers<T>(src.view(), 29 * n + 3);
    std::vector<T> acc_ref(n, T{}), acc4(n, T{});
    T c_ref[kRows] = {}, c4[kRows] = {};

    for (std::size_t r = 0; r < kRows; ++r)
      c_ref[r] = sathost::simd_row_scan_acc<T>(
          &src(r, 0), acc_ref.data(), &ref(r, 0), n, c_ref[r],
          /*allow_stream=*/false);

    const T* src4[4] = {&src(0, 0), &src(1, 0), &src(2, 0), &src(3, 0)};
    T* dst4[4] = {&got4(0, 0), &got4(1, 0), &got4(2, 0), &got4(3, 0)};
    const T* src4b[4] = {&src(4, 0), &src(5, 0), &src(6, 0), &src(7, 0)};
    T* dst4b[4] = {&got4(4, 0), &got4(5, 0), &got4(6, 0), &got4(7, 0)};
    sathost::simd_row_scan_acc4<T>(src4, acc4.data(), dst4, n, c4, false);
    sathost::simd_row_scan_acc4<T>(src4b, acc4.data(), dst4b, n, c4 + 4,
                                   false);

    expect_equal<T>(got4.view(), ref.view(), "acc4");
    for (std::size_t r = 0; r < kRows; ++r)
      ASSERT_EQ(c4[r], c_ref[r]) << "acc4 carry-out, row " << r;
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(acc4[j], acc_ref[j]) << "acc4 accumulator at " << j;
  }
}

template <class T>
class SimdRowReduce : public ::testing::Test {};

using ReduceTypes = ::testing::Types<float, std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(SimdRowReduce, ReduceTypes);

TYPED_TEST(SimdRowReduce, MatchesScalarLoop) {
  // The look-back tile's reduce against the plain loop it replaces, at
  // every length through two full vectors plus a 3-element tail, with the
  // column sums starting from a non-zero row (a tile's later rows add into
  // the earlier ones). Integer-valued inputs keep f32 exact, so the
  // kernel's lane-wise association cannot hide a wrong element.
  using T = TypeParam;
  constexpr std::size_t kWidth = satsimd::Vec<T>::width;
  satutil::Rng rng(kWidth * 97 + sizeof(T));
  for (std::size_t n = 0; n <= 2 * kWidth + 3; ++n) {
    std::vector<T> src(n), acc(n), want_acc(n);
    T want_total{};
    for (std::size_t j = 0; j < n; ++j) {
      src[j] = static_cast<T>(rng.uniform<int>(0, 9));
      acc[j] = static_cast<T>(j % 5 + 1);
      want_acc[j] = acc[j] + src[j];
      want_total += src[j];
    }
    EXPECT_EQ(sathost::simd_row_reduce<T>(src.data(), acc.data(), n),
              want_total)
        << "n=" << n;
    EXPECT_EQ(acc, want_acc) << "n=" << n;
  }
}

// Each row after the head peel is one kernel call, however wide. 256 rows of
// 9000 4-byte elements (9.2 MB) pass kStreamMinBytes, so the sweep streams
// rows longer than any cache-sized block; 9001 columns move each row start
// 4 bytes from the last, so the head peel changes length from row to row.
// Values in [0, 3] keep every f32 sum exact (under 7M < 2^24).
template <class T, class Sweep>
void expect_wide_rows_match(Sweep sweep) {
  const std::size_t rows = 256;
  for (std::size_t cols : {9000ul, 9001ul}) {
    ASSERT_GE(rows * cols * sizeof(T), sathost::kStreamMinBytes);
    sat::Matrix<T> a(rows, cols), ref(rows, cols), got(rows, cols);
    fill_random_integers<T>(a.view(), cols, 3);
    sathost::sat_sequential<T>(a.view(), ref.view());
    sweep(a.view(), got.view());
    EXPECT_TRUE(got == ref) << "cols=" << cols;
  }
}

TEST(SatSimdWideRows, F32MatchesSequential) {
  expect_wide_rows_match<float>([](auto src, auto dst) {
    sathost::sat_simd<float>(src, dst);
  });
}

TEST(SatSimdWideRows, I32MatchesSequential) {
  expect_wide_rows_match<std::int32_t>([](auto src, auto dst) {
    sathost::sat_simd<std::int32_t>(src, dst);
  });
}

TEST(SatSimdWideRows, KahanF32MatchesSequential) {
  expect_wide_rows_match<float>([](auto src, auto dst) {
    sathost::sat_kahan<float>(src, dst);
  });
}

TEST(SatSimdParity, GenericFallbackHandlesInt64) {
  // int64 has no native vector specialization; sat_simd must still work
  // through the generic width-4 fallback.
  const auto a = sat::Matrix<std::int64_t>::random(77, 91, 23, 0, 1000);
  sat::Matrix<std::int64_t> ref(77, 91), got(77, 91);
  sathost::sat_sequential<std::int64_t>(a.view(), ref.view());
  sathost::sat_simd<std::int64_t>(a.view(), got.view());
  EXPECT_EQ(got, ref);
}

}  // namespace
