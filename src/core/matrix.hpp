// sat::Matrix — the owning row-major matrix type of the public API.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/span2d.hpp"

namespace sat {

template <class T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    SAT_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    SAT_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] satutil::Span2d<T> view() {
    return {data_.data(), rows_, cols_};
  }
  [[nodiscard]] satutil::Span2d<const T> view() const {
    return {data_.data(), rows_, cols_};
  }

  bool operator==(const Matrix&) const = default;

  /// An n×n matrix of uniform random values — the paper's workload
  /// (4-byte float matrices; integral T gets small values so even 32K²
  /// SATs stay exact in 64-bit checks).
  [[nodiscard]] static Matrix random(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed, T lo = T{0},
                                     T hi = T{16}) {
    Matrix m(rows, cols);
    satutil::Rng rng(seed);
    for (T& v : m.data_) v = rng.uniform<T>(lo, hi);
    return m;
  }

 private:
  /// rows·cols, refusing a shape no vector can hold: its element count
  /// would wrap std::size_t, or its byte count the address space.
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    SAT_CHECK_MSG(cols == 0 || rows <= std::vector<T>().max_size() / cols,
                  "matrix " << rows << "x" << cols
                            << " has more elements than memory can address");
    return rows * cols;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace sat
