#include "core/api.hpp"

#include <cmath>
#include <sstream>

#include "host/sat_cpu.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"

namespace sat {

namespace {

// Resolves the thread pool a call runs on: the caller-owned
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
  return {run_cpu_batch<T>(inputs, outputs, {}, opts, /*batch_entry=*/true)};
}

template <class T>
Result<T> compute_sat(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  Result<T> result;
  result.table = Matrix<T>(input.rows(), input.cols());
  result.stats.algorithm = run_cpu_batch<T>(
      {input.view()}, {result.table.view()}, {}, opts, /*batch_entry=*/false);
  return result;
}

template <class T>
BatchResult<T> compute_sat_batch(const std::vector<Matrix<T>>& inputs,
                                 const Options& opts) {
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

template <class T>
TiledResult<T> compute_sat_tiled(const Matrix<T>& input, const Options& opts) {
  SAT_CHECK_MSG(!input.empty(), "input matrix is empty");
  TiledResult<T> result{
      TiledSat<T>(input.rows(), input.cols(), residual_tile_w(opts)), {}};
  result.stats.algorithm = run_cpu_batch<T>({input.view()}, {},
                                            {&result.table}, opts,
                                            /*batch_entry=*/false);
  return result;
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
