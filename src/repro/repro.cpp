#include "repro/repro.hpp"

#include <algorithm>

#include "sat/algo_batch.hpp"
#include "scan/row_scan.hpp"

namespace satrepro {

namespace {

/// A fresh simulated device wired to the call's checker and observability.
gpusim::SimContext make_sim(const Options& opts) {
  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
  return sim;
}

/// `x` rounded up to the tile width. The kernels run on tile-aligned
/// matrices; zero-padding on the bottom/right does not change any SAT entry
/// inside the original region, so results are simply cropped back. Every
/// algorithm is rectangular-native, so each dimension pads independently.
std::size_t tile_aligned(std::size_t x, const Options& opts) {
  const std::size_t w = opts.params.tile_w;
  SAT_CHECK_MSG(w > 0 && w % 32 == 0,
                "tile width " << w << " must be a positive multiple of 32");
  return (x + w - 1) / w * w;
}

Stats stats_of(const satalgo::RunResult& run, std::size_t rows,
               std::size_t cols) {
  const gpusim::Counters totals = run.totals();
  Stats s;
  s.algorithm = run.algorithm;
  s.padded_n = std::max(rows, cols);
  s.kernel_calls = run.kernel_calls();
  s.max_threads = run.max_threads();
  s.element_reads = totals.element_reads;
  s.element_writes = totals.element_writes;
  s.global_read_sectors = totals.global_read_sectors;
  s.global_write_sectors = totals.global_write_sectors;
  s.atomic_ops = totals.atomic_ops;
  s.flag_reads = totals.flag_reads;
  s.flag_writes = totals.flag_writes;
  s.max_lookback_depth = run.max_lookback_depth();
  s.critical_path_us = run.sum_critical_path_us();
  return s;
}

}  // namespace

template <class T>
Result<T> compute_sat(const sat::Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  const std::size_t rows = tile_aligned(input.rows(), opts);
  const std::size_t cols = tile_aligned(input.cols(), opts);

  gpusim::SimContext sim = make_sim(opts);
  gpusim::GlobalBuffer<T> a(sim, rows * cols, "input");
  gpusim::GlobalBuffer<T> b(sim, rows * cols, "sat");
  if (rows == input.rows() && cols == input.cols()) {
    a.upload(input.storage());
  } else if (sim.materialize) {
    auto padded = a.view2d(rows, cols);
    for (std::size_t i = 0; i < input.rows(); ++i)
      for (std::size_t j = 0; j < input.cols(); ++j)
        padded(i, j) = input(i, j);
  }

  const satalgo::RunResult run = satalgo::run_algorithm_rect(
      sim, opts.algorithm, a, b, rows, cols, opts.params);

  Result<T> result;
  result.table = sat::Matrix<T>(input.rows(), input.cols());
  const satutil::Span2d<const T> out = b.view2d(rows, cols);
  for (std::size_t i = 0; i < input.rows(); ++i)
    for (std::size_t j = 0; j < input.cols(); ++j)
      result.table(i, j) = out(i, j);
  result.stats = stats_of(run, rows, cols);
  return result;
}

template <class T>
BatchResult<T> compute_sat_batch(const std::vector<sat::Matrix<T>>& inputs,
                                 const Options& opts) {
  SAT_CHECK_MSG(!inputs.empty(), "empty batch");
  const std::size_t in_rows = inputs[0].rows();
  const std::size_t in_cols = inputs[0].cols();
  for (const auto& m : inputs) {
    SAT_CHECK_MSG(m.rows() == in_rows && m.cols() == in_cols,
                  "batched matrices must share one shape");
  }
  const std::size_t rows = tile_aligned(in_rows, opts);
  const std::size_t cols = tile_aligned(in_cols, opts);
  const std::size_t batch = inputs.size();

  gpusim::SimContext sim = make_sim(opts);
  gpusim::GlobalBuffer<T> a(sim, batch * rows * cols, "batch.input");
  gpusim::GlobalBuffer<T> b(sim, batch * rows * cols, "batch.sat");
  if (sim.materialize) {
    for (std::size_t k = 0; k < batch; ++k) {
      T* base = a.data() + k * rows * cols;
      for (std::size_t i = 0; i < in_rows; ++i)
        for (std::size_t j = 0; j < in_cols; ++j)
          base[i * cols + j] = inputs[k](i, j);
    }
  }

  const satalgo::RunResult run =
      satalgo::run_skss_lb_batch(sim, a, b, batch, rows, cols, opts.params);

  BatchResult<T> result;
  result.tables.reserve(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    sat::Matrix<T> table(in_rows, in_cols);
    const T* base = b.data() + k * rows * cols;
    for (std::size_t i = 0; i < in_rows; ++i)
      for (std::size_t j = 0; j < in_cols; ++j)
        table(i, j) = base[i * cols + j];
    result.tables.push_back(std::move(table));
  }
  result.stats = stats_of(run, rows, cols);
  return result;
}

template <class T>
std::vector<T> inclusive_scan(const std::vector<T>& values,
                              const Options& opts) {
  if (values.empty()) return {};
  gpusim::SimContext sim = make_sim(opts);
  gpusim::GlobalBuffer<T> src(sim, values.size(), "scan.src");
  gpusim::GlobalBuffer<T> dst(sim, values.size(), "scan.dst");
  src.upload(values);
  satscan::RowScanTuning tune;
  tune.order = opts.params.order;
  tune.seed = opts.params.seed;
  satscan::row_wise_inclusive_scan(sim, src, dst, 1, values.size(), tune);
  std::vector<T> out(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) out[k] = dst[k];
  return out;
}

Options auto_tune(std::size_t rows, std::size_t cols, const Options& base) {
  SAT_CHECK(rows > 0 && cols > 0);
  Options best = base;
  double best_us = 1e300;
  for (satalgo::Algorithm algo :
       {satalgo::Algorithm::kSkssLb, satalgo::Algorithm::kSkss,
        satalgo::Algorithm::k2R1W}) {
    for (std::size_t w : {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
      const std::size_t longest = std::max(rows, cols);
      const std::size_t n = (longest + w - 1) / w * w;
      gpusim::SimContext sim(base.device);
      sim.materialize = false;
      gpusim::GlobalBuffer<float> a(sim, n * n, "tune.in");
      gpusim::GlobalBuffer<float> b(sim, n * n, "tune.out");
      satalgo::SatParams p;
      p.tile_w = w;
      p.threads_per_block = base.params.threads_per_block;
      const auto run = satalgo::run_algorithm(sim, algo, a, b, n, p);
      double us = 0;
      for (const auto& r : run.reports)
        us += sim.cost.kernel_launch_us + r.critical_path_us;
      if (us < best_us) {
        best_us = us;
        best.algorithm = algo;
        best.params.tile_w = w;
      }
    }
  }
  return best;
}

// Explicit instantiations for the supported element types (the paper uses
// 4-byte float; integral types give the tests exact arithmetic).
template Result<float> compute_sat<float>(const sat::Matrix<float>&,
                                          const Options&);
template Result<double> compute_sat<double>(const sat::Matrix<double>&,
                                            const Options&);
template Result<std::int32_t> compute_sat<std::int32_t>(
    const sat::Matrix<std::int32_t>&, const Options&);
template Result<std::uint32_t> compute_sat<std::uint32_t>(
    const sat::Matrix<std::uint32_t>&, const Options&);
template Result<std::int64_t> compute_sat<std::int64_t>(
    const sat::Matrix<std::int64_t>&, const Options&);

template BatchResult<float> compute_sat_batch<float>(
    const std::vector<sat::Matrix<float>>&, const Options&);
template BatchResult<double> compute_sat_batch<double>(
    const std::vector<sat::Matrix<double>>&, const Options&);
template BatchResult<std::int32_t> compute_sat_batch<std::int32_t>(
    const std::vector<sat::Matrix<std::int32_t>>&, const Options&);
template BatchResult<std::int64_t> compute_sat_batch<std::int64_t>(
    const std::vector<sat::Matrix<std::int64_t>>&, const Options&);

template std::vector<float> inclusive_scan<float>(const std::vector<float>&,
                                                  const Options&);
template std::vector<double> inclusive_scan<double>(const std::vector<double>&,
                                                    const Options&);
template std::vector<std::int32_t> inclusive_scan<std::int32_t>(
    const std::vector<std::int32_t>&, const Options&);
template std::vector<std::int64_t> inclusive_scan<std::int64_t>(
    const std::vector<std::int64_t>&, const Options&);
template std::vector<std::uint32_t> inclusive_scan<std::uint32_t>(
    const std::vector<std::uint32_t>&, const Options&);

}  // namespace satrepro
