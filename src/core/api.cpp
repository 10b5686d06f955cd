#include "core/api.hpp"

#include <cmath>
#include <sstream>

#include "host/sat_cpu.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "sat/algo_batch.hpp"
#include "scan/row_scan.hpp"

namespace sat {

namespace {

template <class T>
Result<T> compute_on_simulated_gpu(const Matrix<T>& input,
                                   const Options& opts) {
  // The kernels run on tile-aligned matrices; zero-padding on the
  // bottom/right does not change any SAT entry inside the original region,
  // so the result is simply cropped back. Every algorithm is rectangular-
  // native, so each dimension pads independently to the tile width.
  SAT_CHECK_MSG(opts.tile_w > 0 && opts.tile_w % 32 == 0,
                "tile width " << opts.tile_w
                              << " must be a positive multiple of 32");
  auto align = [&](std::size_t x) {
    return (x + opts.tile_w - 1) / opts.tile_w * opts.tile_w;
  };
  const std::size_t rows = align(input.rows());
  const std::size_t cols = align(input.cols());

  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
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

  satalgo::SatParams params;
  params.tile_w = opts.tile_w;
  params.threads_per_block = opts.threads_per_block;
  params.arrangement = opts.arrangement;
  params.order = opts.order;
  params.seed = opts.seed;
  params.hybrid_r = opts.hybrid_r;
  params.inject = opts.inject;
  params.inject_serial = opts.inject_serial;

  satalgo::RunResult run = satalgo::run_algorithm_rect(
      sim, opts.algorithm, a, b, rows, cols, params);

  Result<T> result;
  result.table = Matrix<T>(input.rows(), input.cols());
  const satutil::Span2d<const T> out = b.view2d(rows, cols);
  for (std::size_t i = 0; i < input.rows(); ++i)
    for (std::size_t j = 0; j < input.cols(); ++j)
      result.table(i, j) = out(i, j);

  const gpusim::Counters totals = run.totals();
  result.stats.algorithm = run.algorithm;
  result.stats.padded_n = std::max(rows, cols);
  result.stats.kernel_calls = run.kernel_calls();
  result.stats.max_threads = run.max_threads();
  result.stats.element_reads = totals.element_reads;
  result.stats.element_writes = totals.element_writes;
  result.stats.global_read_sectors = totals.global_read_sectors;
  result.stats.global_write_sectors = totals.global_write_sectors;
  result.stats.atomic_ops = totals.atomic_ops;
  result.stats.flag_reads = totals.flag_reads;
  result.stats.flag_writes = totals.flag_writes;
  result.stats.max_lookback_depth = run.max_lookback_depth();
  result.stats.critical_path_us = run.sum_critical_path_us();
  return result;
}

// Resolves the thread pool a CPU-backend call runs on: the caller-owned
// Options::pool when set (a server reusing one pool across requests —
// the owner configures its observability, we leave set_obs alone), else a
// per-call pool wired to the call's obs pointers.
class PoolRef {
 public:
  explicit PoolRef(const Options& opts) {
    if (opts.pool != nullptr) {
      pool_ = opts.pool;
    } else {
      owned_ = std::make_unique<sathost::ThreadPool>(opts.cpu_threads);
      owned_->set_obs(opts.metrics, opts.trace);
      pool_ = owned_.get();
    }
  }
  sathost::ThreadPool& get() { return *pool_; }

 private:
  sathost::ThreadPool* pool_ = nullptr;
  std::unique_ptr<sathost::ThreadPool> owned_;
};

/// Residual tile width for this call (Options::cpu_tile_w doubles as the
/// residual W; 0 picks the documented default).
inline std::size_t residual_tile_w(const Options& opts) {
  return opts.cpu_tile_w != 0 ? opts.cpu_tile_w : kDefaultResidualTileW;
}

/// The SKSS-LB options of a CPU call: its observability plus a tile width
/// (cpu_tile_w for the dense engine, the stores' W for the residual one).
sathost::SkssLbOptions skss_lb_options(const Options& opts,
                                       std::size_t tile_w) {
  sathost::SkssLbOptions lb;
  lb.tile_w = tile_w;
  lb.metrics = opts.metrics;
  lb.trace = opts.trace;
  return lb;
}

/// The one CPU dispatch behind compute_sat, compute_sat_batch,
/// compute_sat_batch_into and compute_sat_tiled; a single image is a batch
/// of one. Image k's table goes to dense[k], or stays compressed in
/// tiled[k] when the caller (compute_sat_tiled) passes no dense outputs.
/// This is the only place that picks the code producing an output:
///   kDense          per cpu_engine: sat_sequential or sat_simd per image,
///                   or one sat_skss_lb_batch pass;
///   kTiledResidual  one sat_skss_lb_residual_batch pass, decoded into
///                   dense[k] for the dense-result entry points;
///   kKahanF32       sat_kahan per image (floating-point T only).
/// Returns the Stats::algorithm label, "cpu-<producer>" plus "-batch" for
/// the batch entry points.
template <class T>
std::string run_cpu_batch(const std::vector<satutil::Span2d<const T>>& inputs,
                          const std::vector<satutil::Span2d<T>>& dense,
                          const std::vector<TiledSat<T>*>& tiled,
                          const Options& opts, bool batch_entry) {
  SAT_CHECK_MSG(!inputs.empty(), "empty batch");
  SAT_CHECK_MSG(
      inputs.size() == (tiled.empty() ? dense.size() : tiled.size()),
      "inputs/outputs batch size mismatch");
  const std::size_t rows = inputs[0].rows();
  const std::size_t cols = inputs[0].cols();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    SAT_CHECK_MSG(inputs[k].rows() == rows && inputs[k].cols() == cols,
                  "batched images must share one shape: image "
                      << k << " is " << inputs[k].rows() << "x"
                      << inputs[k].cols() << ", image 0 is " << rows << "x"
                      << cols);
    SAT_CHECK_MSG(!tiled.empty() || (dense[k].rows() == rows &&
                                     dense[k].cols() == cols),
                  "output " << k << " shape mismatch");
  }

  std::string label;
  switch (tiled.empty() ? opts.storage : Storage::kTiledResidual) {
    case Storage::kKahanF32:
      if constexpr (std::is_floating_point_v<T>) {
        for (std::size_t k = 0; k < inputs.size(); ++k)
          sathost::sat_kahan<T>(inputs[k], dense[k], /*tile=*/4096,
                                opts.metrics);
        label = "cpu-simd-kahan";
      } else {
        SAT_CHECK_MSG(false,
                      "Storage::kKahanF32 requires a floating-point element "
                      "type");
      }
      break;
    case Storage::kTiledResidual: {
      // Dense-result callers get scratch stores decoded into their buffers
      // (the engine's output traffic is still the narrow residual planes).
      std::vector<TiledSat<T>> scratch;
      std::vector<TiledSat<T>*> scratch_ptrs;
      if (tiled.empty()) {
        scratch.reserve(inputs.size());
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          scratch.emplace_back(rows, cols, residual_tile_w(opts));
          scratch_ptrs.push_back(&scratch.back());
        }
      }
      const std::vector<TiledSat<T>*>& outs =
          tiled.empty() ? scratch_ptrs : tiled;
      PoolRef pool(opts);
      sathost::sat_skss_lb_residual_batch<T>(
          pool.get(), inputs, outs, skss_lb_options(opts, outs[0]->tile_w()));
      for (std::size_t k = 0; k < scratch.size(); ++k)
        scratch[k].decode_into(dense[k]);
      label = "cpu-skss-lb-resid";
      break;
    }
    case Storage::kDense:
      switch (opts.cpu_engine) {
        case CpuEngine::kSequential:
          for (std::size_t k = 0; k < inputs.size(); ++k)
            sathost::sat_sequential<T>(inputs[k], dense[k]);
          label = "cpu-sequential";
          break;
        case CpuEngine::kSimd:
          for (std::size_t k = 0; k < inputs.size(); ++k)
            sathost::sat_simd<T>(inputs[k], dense[k], /*tile=*/4096,
                                 opts.metrics);
          label = "cpu-simd";
          break;
        case CpuEngine::kSkssLb: {
          PoolRef pool(opts);
          sathost::sat_skss_lb_batch<T>(pool.get(), inputs, dense,
                                        skss_lb_options(opts, opts.cpu_tile_w));
          label = "cpu-skss-lb";
          break;
        }
      }
      break;
  }
  SAT_CHECK_MSG(!label.empty(), "unknown cpu engine");
  return batch_entry ? label + "-batch" : label;
}

}  // namespace

template <class T>
Stats compute_sat_batch_into(
    const std::vector<satutil::Span2d<const T>>& inputs,
    const std::vector<satutil::Span2d<T>>& outputs, const Options& opts) {
  SAT_CHECK_MSG(opts.backend == Backend::kCpu,
                "compute_sat_batch_into is CPU-only (the simulated device "
                "owns its buffers)");
  Stats stats;
  stats.algorithm =
      run_cpu_batch<T>(inputs, outputs, {}, opts, /*batch_entry=*/true);
  return stats;
}

template <class T>
Result<T> compute_sat(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  SAT_CHECK_MSG(
      opts.storage == Storage::kDense || opts.backend == Backend::kCpu,
      "non-dense storage modes are CPU-backend only");
  switch (opts.backend) {
    case Backend::kSimulatedGpu:
      return compute_on_simulated_gpu(input, opts);
    case Backend::kCpu: {
      Result<T> result;
      result.table = Matrix<T>(input.rows(), input.cols());
      result.stats.algorithm = run_cpu_batch<T>(
          {input.view()}, {result.table.view()}, {}, opts,
          /*batch_entry=*/false);
      return result;
    }
  }
  SAT_CHECK_MSG(false, "unknown backend");
  return {};
}

template <class T>
BatchResult<T> compute_sat_batch(const std::vector<Matrix<T>>& inputs,
                                 const Options& opts) {
  SAT_CHECK_MSG(!inputs.empty(), "empty batch");
  if (opts.backend == Backend::kCpu) {
    BatchResult<T> result;
    std::vector<satutil::Span2d<const T>> srcs;
    std::vector<satutil::Span2d<T>> dsts;
    result.tables.reserve(inputs.size());
    for (const auto& m : inputs) {
      result.tables.emplace_back(m.rows(), m.cols());
      srcs.push_back(m.view());
      dsts.push_back(result.tables.back().view());
    }
    result.stats.algorithm =
        run_cpu_batch<T>(srcs, dsts, {}, opts, /*batch_entry=*/true);
    return result;
  }
  const std::size_t in_rows = inputs[0].rows();
  const std::size_t in_cols = inputs[0].cols();
  for (const auto& m : inputs) {
    SAT_CHECK_MSG(m.rows() == in_rows && m.cols() == in_cols,
                  "batched matrices must share one shape");
  }
  SAT_CHECK_MSG(opts.storage == Storage::kDense,
                "non-dense storage modes are CPU-backend only");
  SAT_CHECK(opts.tile_w > 0 && opts.tile_w % 32 == 0);
  auto align = [&](std::size_t x) {
    return (x + opts.tile_w - 1) / opts.tile_w * opts.tile_w;
  };
  const std::size_t rows = align(in_rows);
  const std::size_t cols = align(in_cols);
  const std::size_t batch = inputs.size();

  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
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

  satalgo::SatParams params;
  params.tile_w = opts.tile_w;
  params.threads_per_block = opts.threads_per_block;
  params.arrangement = opts.arrangement;
  params.order = opts.order;
  params.seed = opts.seed;

  const satalgo::RunResult run =
      satalgo::run_skss_lb_batch(sim, a, b, batch, rows, cols, params);

  BatchResult<T> result;
  result.tables.reserve(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    Matrix<T> table(in_rows, in_cols);
    const T* base = b.data() + k * rows * cols;
    for (std::size_t i = 0; i < in_rows; ++i)
      for (std::size_t j = 0; j < in_cols; ++j)
        table(i, j) = base[i * cols + j];
    result.tables.push_back(std::move(table));
  }
  const gpusim::Counters totals = run.totals();
  result.stats.algorithm = run.algorithm;
  result.stats.padded_n = std::max(rows, cols);
  result.stats.kernel_calls = run.kernel_calls();
  result.stats.max_threads = run.max_threads();
  result.stats.element_reads = totals.element_reads;
  result.stats.element_writes = totals.element_writes;
  result.stats.global_read_sectors = totals.global_read_sectors;
  result.stats.global_write_sectors = totals.global_write_sectors;
  result.stats.atomic_ops = totals.atomic_ops;
  result.stats.flag_reads = totals.flag_reads;
  result.stats.flag_writes = totals.flag_writes;
  result.stats.max_lookback_depth = run.max_lookback_depth();
  result.stats.critical_path_us = run.sum_critical_path_us();
  return result;
}

template <class T>
TiledResult<T> compute_sat_tiled(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  SAT_CHECK_MSG(opts.backend == Backend::kCpu,
                "compute_sat_tiled is CPU-backend only");
  TiledResult<T> result{
      TiledSat<T>(input.rows(), input.cols(), residual_tile_w(opts)), {}};
  result.stats.algorithm = run_cpu_batch<T>({input.view()}, {},
                                            {&result.table}, opts,
                                            /*batch_entry=*/false);
  return result;
}

template <class T>
std::vector<T> inclusive_scan(const std::vector<T>& values,
                              const Options& opts) {
  if (values.empty()) return {};
  gpusim::SimContext sim(opts.device);
  sim.checker = opts.checker;
  sim.metrics = opts.metrics;
  sim.trace = opts.trace;
  gpusim::GlobalBuffer<T> src(sim, values.size(), "scan.src");
  gpusim::GlobalBuffer<T> dst(sim, values.size(), "scan.dst");
  src.upload(values);
  satscan::RowScanTuning tune;
  tune.order = opts.order;
  tune.seed = opts.seed;
  satscan::row_wise_inclusive_scan(sim, src, dst, 1, values.size(), tune);
  std::vector<T> out(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) out[k] = dst[k];
  return out;
}

Options auto_tune(std::size_t rows, std::size_t cols, const Options& base) {
  SAT_CHECK(rows > 0 && cols > 0);
  Options best = base;
  double best_ms = 1e300;
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
      p.threads_per_block = base.threads_per_block;
      const auto run = satalgo::run_algorithm(sim, algo, a, b, n, p);
      double us = 0;
      for (const auto& r : run.reports)
        us += sim.cost.kernel_launch_us + r.critical_path_us;
      if (us < best_ms) {
        best_ms = us;
        best.algorithm = algo;
        best.tile_w = w;
      }
    }
  }
  return best;
}

template <class T>
std::optional<std::string> validate_sat(const Matrix<T>& input,
                                        const Matrix<T>& table,
                                        double rel_tol) {
  if (input.rows() != table.rows() || input.cols() != table.cols()) {
    return "shape mismatch";
  }
  Matrix<T> ref(input.rows(), input.cols());
  sathost::sat_sequential<T>(input.view(), ref.view());
  for (std::size_t i = 0; i < input.rows(); ++i) {
    for (std::size_t j = 0; j < input.cols(); ++j) {
      const double expect = static_cast<double>(ref(i, j));
      const double got = static_cast<double>(table(i, j));
      bool ok;
      if constexpr (std::is_integral_v<T>) {
        ok = ref(i, j) == table(i, j);
      } else {
        const double scale = std::max(1.0, std::fabs(expect));
        ok = std::fabs(got - expect) <= rel_tol * scale;
      }
      if (!ok) {
        std::ostringstream os;
        os << "mismatch at (" << i << "," << j << "): expected " << expect
           << ", got " << got;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

// Explicit instantiations for the supported element types (the paper uses
// 4-byte float; integral types give the tests exact arithmetic).
template Result<float> compute_sat<float>(const Matrix<float>&,
                                          const Options&);
template Result<double> compute_sat<double>(const Matrix<double>&,
                                            const Options&);
template Result<std::int32_t> compute_sat<std::int32_t>(
    const Matrix<std::int32_t>&, const Options&);
template Result<std::uint32_t> compute_sat<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Options&);
template Result<std::int64_t> compute_sat<std::int64_t>(
    const Matrix<std::int64_t>&, const Options&);

template BatchResult<float> compute_sat_batch<float>(
    const std::vector<Matrix<float>>&, const Options&);
template BatchResult<double> compute_sat_batch<double>(
    const std::vector<Matrix<double>>&, const Options&);
template BatchResult<std::int32_t> compute_sat_batch<std::int32_t>(
    const std::vector<Matrix<std::int32_t>>&, const Options&);
template BatchResult<std::int64_t> compute_sat_batch<std::int64_t>(
    const std::vector<Matrix<std::int64_t>>&, const Options&);

template Stats compute_sat_batch_into<float>(
    const std::vector<satutil::Span2d<const float>>&,
    const std::vector<satutil::Span2d<float>>&, const Options&);
template Stats compute_sat_batch_into<double>(
    const std::vector<satutil::Span2d<const double>>&,
    const std::vector<satutil::Span2d<double>>&, const Options&);
template Stats compute_sat_batch_into<std::int32_t>(
    const std::vector<satutil::Span2d<const std::int32_t>>&,
    const std::vector<satutil::Span2d<std::int32_t>>&, const Options&);
template Stats compute_sat_batch_into<std::int64_t>(
    const std::vector<satutil::Span2d<const std::int64_t>>&,
    const std::vector<satutil::Span2d<std::int64_t>>&, const Options&);

template TiledResult<float> compute_sat_tiled<float>(const Matrix<float>&,
                                                     const Options&);
template TiledResult<double> compute_sat_tiled<double>(const Matrix<double>&,
                                                       const Options&);
template TiledResult<std::int32_t> compute_sat_tiled<std::int32_t>(
    const Matrix<std::int32_t>&, const Options&);
template TiledResult<std::uint32_t> compute_sat_tiled<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Options&);
template TiledResult<std::int64_t> compute_sat_tiled<std::int64_t>(
    const Matrix<std::int64_t>&, const Options&);

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

template std::optional<std::string> validate_sat<float>(const Matrix<float>&,
                                                        const Matrix<float>&,
                                                        double);
template std::optional<std::string> validate_sat<double>(
    const Matrix<double>&, const Matrix<double>&, double);
template std::optional<std::string> validate_sat<std::int32_t>(
    const Matrix<std::int32_t>&, const Matrix<std::int32_t>&, double);
template std::optional<std::string> validate_sat<std::uint32_t>(
    const Matrix<std::uint32_t>&, const Matrix<std::uint32_t>&, double);
template std::optional<std::string> validate_sat<std::int64_t>(
    const Matrix<std::int64_t>&, const Matrix<std::int64_t>&, double);

}  // namespace sat
