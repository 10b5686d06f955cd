// 2R2W-optimal algorithm [10,12]: column-wise prefix sums with the
// Tokura-style strip kernel, then row-wise prefix sums with the
// Merrill–Garland decoupled-look-back kernel. Two kernels, all access
// coalesced, n²/m threads (high parallelism) — but by construction at least
// two reads and two writes per element, so its overhead over duplication is
// bounded below by 100 % (the paper's "optimal under the two-pass
// condition" observation).
#pragma once

#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"
#include "scan/col_scan.hpp"
#include "scan/row_scan.hpp"

namespace satalgo {

template <class T>
RunResult run_2r2w_optimal(gpusim::SimContext& sim, gpusim::GlobalBuffer<T>& a,
                           gpusim::GlobalBuffer<T>& b, std::size_t rows,
                           std::size_t cols, const SatParams& p = {}) {
  RunResult res;
  res.algorithm = "2R2W-optimal";
  res.reports.push_back(
      satscan::col_wise_inclusive_scan(sim, a, b, rows, cols, p.col_scan));
  res.reports.push_back(
      satscan::row_wise_inclusive_scan(sim, b, b, rows, cols, p.row_scan));
  return res;
}

}  // namespace satalgo
