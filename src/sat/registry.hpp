// Algorithm registry: enumeration, metadata (the closed-form columns of
// Table I), and a uniform dispatch entry point.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/algo_1r1w.hpp"
#include "sat/algo_2r1w.hpp"
#include "sat/algo_2r2w.hpp"
#include "sat/algo_2r2w_opt.hpp"
#include "sat/algo_duplicate.hpp"
#include "sat/algo_hybrid.hpp"
#include "sat/algo_skss.hpp"
#include "sat/algo_skss_lb.hpp"
#include "sat/params.hpp"

namespace satalgo {

enum class Algorithm {
  kDuplicate,   ///< matrix duplication — the lower bound, not a SAT
  k2R2W,        ///< two naive prefix-sum kernels, n threads
  k2R2WOptimal, ///< Tokura column scan + Merrill–Garland row scan [10,12]
  k2R1W,        ///< Nehab et al. three-kernel tile algorithm [13]
  k1R1W,        ///< Kasagi et al. diagonal-kernel algorithm [14]
  kHybrid,      ///< (1+r)R1W hybrid [14]
  kSkss,        ///< Funasaka et al. single-kernel column algorithm [15]
  kSkssLb,      ///< this paper: single kernel + look-back (§IV)
};

/// All SAT algorithms (excludes the duplication baseline), Table III order.
[[nodiscard]] inline std::vector<Algorithm> all_sat_algorithms() {
  return {Algorithm::k2R2W,   Algorithm::k2R2WOptimal, Algorithm::k2R1W,
          Algorithm::k1R1W,   Algorithm::kHybrid,      Algorithm::kSkss,
          Algorithm::kSkssLb};
}

/// The tile-based algorithms (the ones Table III sweeps over W).
[[nodiscard]] inline std::vector<Algorithm> tiled_sat_algorithms() {
  return {Algorithm::k2R1W, Algorithm::k1R1W, Algorithm::kHybrid,
          Algorithm::kSkss, Algorithm::kSkssLb};
}

[[nodiscard]] inline const char* name_of(Algorithm a) {
  switch (a) {
    case Algorithm::kDuplicate: return "duplicate";
    case Algorithm::k2R2W: return "2R2W";
    case Algorithm::k2R2WOptimal: return "2R2W-optimal";
    case Algorithm::k2R1W: return "2R1W";
    case Algorithm::k1R1W: return "1R1W";
    case Algorithm::kHybrid: return "(1+r)R1W";
    case Algorithm::kSkss: return "1R1W-SKSS";
    case Algorithm::kSkssLb: return "1R1W-SKSS-LB";
  }
  return "?";
}

[[nodiscard]] inline bool is_tiled(Algorithm a) {
  switch (a) {
    case Algorithm::k2R1W:
    case Algorithm::k1R1W:
    case Algorithm::kHybrid:
    case Algorithm::kSkss:
    case Algorithm::kSkssLb:
      return true;
    default:
      return false;
  }
}

/// Table I parallelism classes.
enum class Parallelism { kLow, kMedium, kHigh };

[[nodiscard]] inline const char* to_string(Parallelism p) {
  switch (p) {
    case Parallelism::kLow: return "low";
    case Parallelism::kMedium: return "medium";
    case Parallelism::kHigh: return "high";
  }
  return "?";
}

/// Closed-form Table I row for one algorithm (kernel calls, max threads and
/// parallelism class as functions of n, W, m, r).
struct TheoryRow {
  std::string name;
  double kernel_calls = 0;
  double threads = 0;
  Parallelism parallelism = Parallelism::kHigh;
  double reads_leading = 0;   ///< coefficient of n² in global reads
  double writes_leading = 0;  ///< coefficient of n² in global writes
};

[[nodiscard]] inline TheoryRow theory_row(Algorithm a, std::size_t n,
                                          std::size_t w, std::size_t m,
                                          double r = 0.25) {
  const auto nd = static_cast<double>(n);
  const auto wd = static_cast<double>(w);
  const auto md = static_cast<double>(m);
  TheoryRow row;
  row.name = name_of(a);
  switch (a) {
    case Algorithm::kDuplicate:
      row = {row.name, 1, nd * nd / md, Parallelism::kHigh, 1, 1};
      break;
    case Algorithm::k2R2W:
      row = {row.name, 2, nd, Parallelism::kLow, 2, 2};
      break;
    case Algorithm::k2R2WOptimal:
      row = {row.name, 2, nd * nd / md, Parallelism::kHigh, 2, 2};
      break;
    case Algorithm::k2R1W:
      row = {row.name, 3, nd * nd / md, Parallelism::kHigh, 2, 1};
      break;
    case Algorithm::k1R1W:
      row = {row.name, 2 * nd / wd - 1, nd * wd / md, Parallelism::kMedium, 1,
             1};
      break;
    case Algorithm::kHybrid:
      row = {row.name, 2 * (1 - std::sqrt(r)) * nd / wd + 5,
             std::max(r * nd * nd / (2 * md), nd * wd / md),
             Parallelism::kMedium, 1 + r, 1};
      break;
    case Algorithm::kSkss:
      row = {row.name, 1, nd * wd / md, Parallelism::kMedium, 1, 1};
      break;
    case Algorithm::kSkssLb:
      row = {row.name, 1, nd * nd / md, Parallelism::kHigh, 1, 1};
      break;
  }
  return row;
}

/// Uniform dispatch: runs `algo` computing the SAT of the rows×cols matrix
/// `a` into `b`. Tiled algorithms need both dimensions to be multiples of
/// the tile width.
template <class T>
RunResult run_algorithm(gpusim::SimContext& sim, Algorithm algo,
                        gpusim::GlobalBuffer<T>& a, gpusim::GlobalBuffer<T>& b,
                        std::size_t rows, std::size_t cols,
                        const SatParams& p = {}) {
  SAT_CHECK_MSG(rows > 0 && cols > 0,
                name_of(algo) << " needs a non-empty matrix, got " << rows
                              << "x" << cols);
  switch (algo) {
    case Algorithm::kDuplicate: return run_duplicate(sim, a, b, rows, cols, p);
    case Algorithm::k2R2W: return run_2r2w(sim, a, b, rows, cols, p);
    case Algorithm::k2R2WOptimal:
      return run_2r2w_optimal(sim, a, b, rows, cols, p);
    case Algorithm::k2R1W: return run_2r1w(sim, a, b, rows, cols, p);
    case Algorithm::k1R1W: return run_1r1w(sim, a, b, rows, cols, p);
    case Algorithm::kHybrid: return run_hybrid(sim, a, b, rows, cols, p);
    case Algorithm::kSkss: return run_skss(sim, a, b, rows, cols, p);
    case Algorithm::kSkssLb: return run_skss_lb(sim, a, b, rows, cols, p);
  }
  SAT_CHECK_MSG(false, "unknown algorithm");
  return {};
}

}  // namespace satalgo
