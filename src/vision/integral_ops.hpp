// Integral-image operations — the computer-vision applications the paper
// cites as the SAT's raison d'être (§I-A: "the SAT has a lot of
// applications in the area of image processing and computer vision").
//
// Everything here consumes a precomputed SAT (and, where needed, the SAT of
// squared pixels) and answers in O(1) per query / O(n²) per full-image op,
// independent of window size.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>

#include "core/matrix.hpp"
#include "core/region.hpp"
#include "host/sat_tiled.hpp"
#include "host/thread_pool.hpp"
#include "sat/storage.hpp"
#include "util/check.hpp"

namespace satvision {

/// Clamped window [r−radius, r+radius] × [c−radius, c+radius] ∩ image.
[[nodiscard]] inline sat::Rect window_at(std::size_t r, std::size_t c,
                                         std::size_t radius, std::size_t rows,
                                         std::size_t cols) {
  return sat::Rect{r > radius ? r - radius : 0, c > radius ? c - radius : 0,
                   std::min(rows, r + radius + 1),
                   std::min(cols, c + radius + 1)};
}

/// Box filter: the mean over a (2·radius+1)² window, O(1) per pixel.
/// `table` is any SAT with rows()/cols() and a sat::region_mean overload
/// declared before this header — dense sat::Matrix or compressed
/// sat::TiledSat (the means then come from decompress-on-the-fly corner
/// lookups; no dense decode needed). The output's 16-row bands run on a
/// per-call pool of one worker per 4K output pixels, up to the hardware
/// concurrency (one worker, and no thread, below 8K pixels), so
/// region_mean(table, rect) must be safe to call concurrently; the first
/// exception a band throws is rethrown on the caller.
template <class Table>
[[nodiscard]] sat::Matrix<float> box_filter(const Table& table,
                                            std::size_t radius) {
  // Probed on 4 cores (docs/api.md): a second worker pays from about 8K
  // pixels, four from 16K; 4- to 16-row bands ran alike. Unmeasured beyond
  // 4 cores, where each extra worker still costs a thread start.
  constexpr std::size_t kBandRows = 16, kPixelsPerWorker = 4096;
  const std::size_t rows = table.rows(), cols = table.cols();
  sat::Matrix<float> out(rows, cols);
  sathost::ThreadPool pool(std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()),
      std::max<std::size_t>(1, rows * cols / kPixelsPerWorker)));
  std::mutex mu;
  std::exception_ptr error;  // the first band's exception, guarded by mu
  pool.parallel_for((rows + kBandRows - 1) / kBandRows, [&](std::size_t b) {
    const std::size_t i1 = std::min(rows, (b + 1) * kBandRows);
    try {
      for (std::size_t i = b * kBandRows; i < i1; ++i)
        for (std::size_t j = 0; j < cols; ++j)
          out(i, j) = static_cast<float>(
              sat::region_mean(table, window_at(i, j, radius, rows, cols)));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
  return out;
}

/// The pair of tables needed by variance/normalization queries: SAT of the
/// image and SAT of its squared pixels (cf. variance shadow maps [8]).
struct MomentTables {
  sat::Matrix<double> sum;
  sat::Matrix<double> sum_sq;

  template <class T>
  [[nodiscard]] static MomentTables build(const sat::Matrix<T>& image);

  [[nodiscard]] std::size_t rows() const { return sum.rows(); }
  [[nodiscard]] std::size_t cols() const { return sum.cols(); }

  /// Mean over rect.
  [[nodiscard]] double mean(const sat::Rect& rect) const {
    return sat::region_mean(sum, rect);
  }

  /// Population variance over rect (never negative; clamped against
  /// floating-point cancellation).
  [[nodiscard]] double variance(const sat::Rect& rect) const {
    const double m = mean(rect);
    const double m2 = sat::region_mean(sum_sq, rect);
    return std::max(0.0, m2 - m * m);
  }

  [[nodiscard]] double stddev(const sat::Rect& rect) const {
    return std::sqrt(variance(rect));
  }
};

template <class T>
MomentTables MomentTables::build(const sat::Matrix<T>& image) {
  const std::size_t rows = image.rows(), cols = image.cols();
  sat::Matrix<double> v(rows, cols), v2(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const double x = static_cast<double>(image(i, j));
      v(i, j) = x;
      v2(i, j) = x * x;
    }
  MomentTables t;
  t.sum = sat::Matrix<double>(rows, cols);
  t.sum_sq = sat::Matrix<double>(rows, cols);
  // Host-side single pass; callers wanting the simulated-GPU path can build
  // the tables via satrepro::compute_sat and assign them directly.
  for (std::size_t i = 0; i < rows; ++i) {
    double run = 0, run2 = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      run += v(i, j);
      run2 += v2(i, j);
      t.sum(i, j) = run + (i > 0 ? t.sum(i - 1, j) : 0.0);
      t.sum_sq(i, j) = run2 + (i > 0 ? t.sum_sq(i - 1, j) : 0.0);
    }
  }
  return t;
}

/// MomentTables in tiled base+residual storage (sat::TiledSat): the same
/// mean/variance/stddev interface, but both tables stay compressed and
/// every query decompresses its four corners on the fly — the matcher and
/// threshold paths never pay for a dense f64 table pair. Drop-in for the
/// `Moments` parameter of match_template_with.
struct TiledMomentTables {
  sat::TiledSat<double> sum;
  sat::TiledSat<double> sum_sq;

  template <class T>
  [[nodiscard]] static TiledMomentTables build(
      const sat::Matrix<T>& image,
      std::size_t tile_w = sat::kDefaultResidualTileW) {
    const std::size_t rows = image.rows(), cols = image.cols();
    sat::Matrix<double> v(rows, cols), v2(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        const double x = static_cast<double>(image(i, j));
        v(i, j) = x;
        v2(i, j) = x * x;
      }
    TiledMomentTables t;
    t.sum = sat::TiledSat<double>(rows, cols, tile_w);
    t.sum_sq = sat::TiledSat<double>(rows, cols, tile_w);
    // The tiled producer on the calling thread (a 1-worker pool spawns
    // none); both tables share one pass.
    sathost::ThreadPool pool(1);
    sathost::sat_tiled_batch<double>(pool, {v.view(), v2.view()},
                                     {&t.sum, &t.sum_sq});
    return t;
  }

  [[nodiscard]] std::size_t rows() const { return sum.rows(); }
  [[nodiscard]] std::size_t cols() const { return sum.cols(); }

  [[nodiscard]] double mean(const sat::Rect& rect) const {
    return sat::region_mean(sum, rect);
  }

  [[nodiscard]] double variance(const sat::Rect& rect) const {
    const double m = mean(rect);
    const double m2 = sat::region_mean(sum_sq, rect);
    return std::max(0.0, m2 - m * m);
  }

  [[nodiscard]] double stddev(const sat::Rect& rect) const {
    return std::sqrt(variance(rect));
  }
};

/// Local standard deviation map (adaptive-thresholding building block).
[[nodiscard]] inline sat::Matrix<float> local_stddev(const MomentTables& t,
                                                     std::size_t radius) {
  sat::Matrix<float> out(t.rows(), t.cols());
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      out(i, j) = static_cast<float>(
          t.stddev(window_at(i, j, radius, t.rows(), t.cols())));
  return out;
}

/// Sauvola-style adaptive binarization: pixel is foreground when it is
/// darker than mean·(1 + k·(σ/R − 1)) over its window.
template <class T>
[[nodiscard]] sat::Matrix<std::uint8_t> adaptive_threshold(
    const sat::Matrix<T>& image, const MomentTables& t, std::size_t radius,
    double k = 0.2, double sigma_max = 0.5) {
  sat::Matrix<std::uint8_t> out(t.rows(), t.cols());
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j) {
      const sat::Rect w = window_at(i, j, radius, t.rows(), t.cols());
      const double thresh =
          t.mean(w) * (1.0 + k * (t.stddev(w) / sigma_max - 1.0));
      out(i, j) = static_cast<double>(image(i, j)) < thresh ? 1 : 0;
    }
  return out;
}

/// Repeated box filtering converges to a Gaussian (central limit theorem);
/// three passes is the classic cheap approximation.
template <class T>
[[nodiscard]] sat::Matrix<float> gaussian_approx(const sat::Matrix<T>& image,
                                                 std::size_t radius,
                                                 int passes = 3) {
  SAT_CHECK(passes >= 1);
  sat::Matrix<float> current(image.rows(), image.cols());
  for (std::size_t i = 0; i < image.rows(); ++i)
    for (std::size_t j = 0; j < image.cols(); ++j)
      current(i, j) = static_cast<float>(image(i, j));
  for (int p = 0; p < passes; ++p)
    current = box_filter(MomentTables::build(current).sum, radius);
  return current;
}

}  // namespace satvision
