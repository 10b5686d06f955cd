// A region of interest of a tiled SAT, for satvision::box_filter.
//
// box_filter reads its table through rows(), cols() and a call to
// sat::region_mean (a qualified name, so only overloads declared before
// vision/integral_ops.hpp is first included take part). This header
// declares the Roi overload and then includes integral_ops.hpp itself;
// include it before anything that pulls in the vision headers.
#pragma once

#include <cstdint>

#include "core/api.hpp"  // integral_ops.hpp uses kDefaultResidualTileW
#include "core/region.hpp"
#include "sat/storage.hpp"

namespace perfbench {

/// rows × cols cells of `table` starting at (r0, c0); window means are
/// answered by the full table, so a filter over the ROI reads the same
/// compressed tiles a filter over the whole frame would.
struct Roi {
  const sat::TiledSat<std::int32_t>* table = nullptr;
  std::size_t r0 = 0, c0 = 0, n_rows = 0, n_cols = 0;

  [[nodiscard]] std::size_t rows() const { return n_rows; }
  [[nodiscard]] std::size_t cols() const { return n_cols; }
};

}  // namespace perfbench

namespace sat {

[[nodiscard]] inline double region_mean(const perfbench::Roi& roi,
                                        const Rect& rect) {
  return region_mean(*roi.table, Rect{rect.r0 + roi.r0, rect.c0 + roi.c0,
                                      rect.r1 + roi.r0, rect.c1 + roi.c0});
}

}  // namespace sat

#include "vision/integral_ops.hpp"
