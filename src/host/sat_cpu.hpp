// Scalar host (CPU) summed-area-table oracles.
//
// `sat_sequential` is the auditable O(n²) oracle every simulated algorithm
// and host engine is validated against; `sat_two_pass` and
// `sat_sequential_kahan` cross-check it and the Kahan storage mode. The
// engines themselves are sat_simd (host/sat_simd.hpp) and the paper's
// 1R1W-SKSS-LB (host/sat_skss_lb.hpp).
#pragma once

#include <cstddef>

#include "host/sat_simd.hpp"
#include "util/span2d.hpp"

namespace sathost {

/// Single-pass sequential SAT:
///   b[i][j] = a[i][j] + b[i−1][j] + b[i][j−1] − b[i−1][j−1].
/// `src` and `dst` must have identical shape and must not alias.
template <class T>
void sat_sequential(satutil::Span2d<const T> src, satutil::Span2d<T> dst) {
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    T row_run{};
    for (std::size_t j = 0; j < cols; ++j) {
      row_run += src(i, j);
      dst(i, j) = row_run + (i > 0 ? dst(i - 1, j) : T{});
    }
  }
}

/// Two-pass sequential SAT (column-wise then row-wise prefix sums) — the
/// definition in Figure 2; used by the property tests to cross-check the
/// single-pass recurrence. May alias src == dst.
template <class T>
void sat_two_pass(satutil::Span2d<const T> src, satutil::Span2d<T> dst) {
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      dst(i, j) = src(i, j) + (i > 0 ? dst(i - 1, j) : T{});
  for (std::size_t i = 0; i < rows; ++i) {
    T run{};
    for (std::size_t j = 0; j < cols; ++j) {
      run += dst(i, j);
      dst(i, j) = run;
    }
  }
}

/// Sequential SAT with a Kahan-compensated column accumulator — the scalar
/// reference for Storage::kKahanF32 (the vectorized engine is sat_kahan in
/// sat_simd.hpp). The row prefix is a plain running sum; each fold of a
/// row-prefix value into the per-column running total carries the rounding
/// residue forward in `comp` instead of discarding it, which keeps the
/// column error O(1) ulp instead of O(rows) ulp past the f32 ~2^24
/// integer-exactness boundary. Floating T only.
template <class T>
void sat_sequential_kahan(satutil::Span2d<const T> src,
                          satutil::Span2d<T> dst) {
  static_assert(std::is_floating_point_v<T>,
                "Storage::kKahanF32 requires a floating-point table");
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  std::vector<T> acc(cols, T{});
  std::vector<T> comp(cols, T{});
  for (std::size_t i = 0; i < rows; ++i) {
    T row_run{};
    for (std::size_t j = 0; j < cols; ++j) {
      row_run += src(i, j);
      const T y = row_run - comp[j];
      const T t = acc[j] + y;
      comp[j] = (t - acc[j]) - y;
      acc[j] = t;
      dst(i, j) = t;
    }
  }
}

}  // namespace sathost
