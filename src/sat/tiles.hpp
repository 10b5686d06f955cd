// Tile geometry: the partition of a rows×cols matrix into W×W tiles T(I,J)
// and the diagonal-major serial numbering of Figure 9,
//     σ(I,J) = (I+J)(I+J+1)/2 + I            while I+J < min(gr,gc),
// continued over the truncated diagonals of the (possibly rectangular)
// gr×gc tile grid. Every look-back dependency of the 1R1W-SKSS-LB algorithm
// points to a strictly smaller serial, which is the deadlock-freedom
// invariant the tests verify.
//
// The paper evaluates square matrices only; the rectangular generalization
// keeps the same ordering property (serials sort primarily by anti-diagonal
// I+J). Every simulated algorithm takes rows×cols, and the public API pads
// each dimension of a non-square input to the tile width on its own.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace satalgo {

class TileGrid {
 public:
  /// Square grid over an n×n matrix (the paper's setting).
  TileGrid(std::size_t n, std::size_t tile_w) : TileGrid(n, n, tile_w) {}

  /// Rectangular grid over a rows×cols matrix.
  TileGrid(std::size_t rows, std::size_t cols, std::size_t tile_w)
      : rows_(rows), cols_(cols), w_(tile_w) {
    SAT_CHECK_MSG(tile_w > 0 && rows % tile_w == 0 && cols % tile_w == 0,
                  "matrix " << rows << "x" << cols
                            << " must be a multiple of tile width " << tile_w);
    gr_ = rows / tile_w;
    gc_ = cols / tile_w;
    // Offset of each anti-diagonal's first serial. O(gr+gc) memory — the
    // grid object lives on the host (kernel-argument analog).
    diag_offset_.resize(gr_ + gc_, 0);
    for (std::size_t d = 1; d < gr_ + gc_ - 1; ++d)
      diag_offset_[d] = diag_offset_[d - 1] + diagonal_size(d - 1);
    diag_offset_[gr_ + gc_ - 1] = count();  // sentinel
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  /// Square-grid side (the paper's n); valid only when rows == cols.
  [[nodiscard]] std::size_t n() const {
    SAT_DCHECK(rows_ == cols_);
    return rows_;
  }
  [[nodiscard]] std::size_t tile_w() const { return w_; }
  /// Tiles per column of tiles / per row of tiles.
  [[nodiscard]] std::size_t g_rows() const { return gr_; }
  [[nodiscard]] std::size_t g_cols() const { return gc_; }
  /// Tiles per side (the paper's n/W); valid only for square grids.
  [[nodiscard]] std::size_t g() const {
    SAT_DCHECK(gr_ == gc_);
    return gr_;
  }
  [[nodiscard]] std::size_t count() const { return gr_ * gc_; }

  /// Row-major tile index used for the auxiliary arrays.
  [[nodiscard]] std::size_t idx(std::size_t ti, std::size_t tj) const {
    SAT_DCHECK(ti < gr_ && tj < gc_);
    return ti * gc_ + tj;
  }

  /// Diagonal-major serial number of tile (I, J) — Figure 9.
  [[nodiscard]] std::size_t serial(std::size_t ti, std::size_t tj) const {
    SAT_DCHECK(ti < gr_ && tj < gc_);
    const std::size_t d = ti + tj;
    const std::size_t i_lo = d < gc_ ? 0 : d - gc_ + 1;
    return diag_offset_[d] + (ti - i_lo);
  }

  /// Inverse of serial(): the tile processed `s`-th in diagonal-major order.
  [[nodiscard]] std::pair<std::size_t, std::size_t> tile_of_serial(
      std::size_t s) const {
    SAT_DCHECK(s < count());
    // Binary search for the diagonal containing s.
    std::size_t lo = 0, hi = gr_ + gc_ - 2;
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      if (diag_offset_[mid] <= s) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    const std::size_t d = lo;
    const std::size_t i_lo = d < gc_ ? 0 : d - gc_ + 1;
    const std::size_t ti = i_lo + (s - diag_offset_[d]);
    return {ti, d - ti};
  }

  /// Number of tiles on anti-diagonal d (the grid of 1R1W's kernel d).
  [[nodiscard]] std::size_t diagonal_size(std::size_t d) const {
    SAT_DCHECK(d < gr_ + gc_ - 1);
    const std::size_t i_lo = d < gc_ ? 0 : d - gc_ + 1;
    const std::size_t i_hi = std::min(gr_ - 1, d);
    return i_hi - i_lo + 1;
  }

  [[nodiscard]] std::size_t diagonal_count() const { return gr_ + gc_ - 1; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t w_;
  std::size_t gr_ = 0;
  std::size_t gc_ = 0;
  std::vector<std::size_t> diag_offset_;
};

}  // namespace satalgo
