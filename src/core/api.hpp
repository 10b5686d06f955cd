// The satlib public API: summed area tables on the host engines.
//
//   sat::Matrix<float> img = ...;                      // any rows×cols input
//   sat::Result<float> r = sat::compute_sat(img);      // SAT + run stats
//   float s = sat::region_sum(r.table, {r0, c0, r1, c1});
//
// `compute_sat` runs the paper's 1R1W-SKSS-LB on worker threads by default
// (docs/host_engine.md). The paper's simulated TITAN V runs, with their
// kernel and traffic statistics, are the reproduction library's
// (repro/repro.hpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "core/region.hpp"
#include "sat/storage.hpp"

namespace obs {
class Registry;
class TraceSink;
}  // namespace obs

namespace sathost {
class ThreadPool;
}  // namespace sathost

namespace sat {

/// Kept for source compatibility: the host is the only backend.
enum class Backend {
  kCpu,  ///< run the multithreaded host implementation
};

/// Host engine for Storage::kDense (see docs/host_engine.md). The other
/// storage modes have one producer each and ignore it.
enum class CpuEngine {
  kSequential,  ///< single-threaded scalar reference
  kSimd,        ///< single-threaded fused SIMD sweep
  kSkssLb,      ///< the paper's 1R1W-SKSS-LB on worker threads
};

/// Options for the host entry points. Defaults run the paper's
/// 1R1W-SKSS-LB on hardware-concurrency workers into a dense table.
struct Options {
  Backend backend = Backend::kCpu;

  /// Worker threads (0 = hardware concurrency).
  std::size_t cpu_threads = 0;

  /// Which host engine computes a kDense table (docs/host_engine.md
  /// compares them; kSkssLb is the paper's algorithm on the host).
  CpuEngine cpu_engine = CpuEngine::kSkssLb;

  /// SKSS-LB tile width. Any positive value — the host has no warp-multiple
  /// constraint. 0 = automatic worker-count-scaled width (see
  /// sathost::SkssLbOptions::tile_w).
  std::size_t cpu_tile_w = 0;

  /// An external, caller-owned thread pool. Null (the default) makes each
  /// call construct its own `cpu_threads`-wide pool — fine for one-shot
  /// use, but a long-running server (tools/satd) pays thread start-up on
  /// every request that way. When set, the call runs on this pool instead
  /// and `cpu_threads` is ignored; the pool's observability
  /// (ThreadPool::set_obs) is the owner's to configure and is NOT
  /// overwritten (engine-level hooks still honor `metrics`/`trace` below).
  /// The pool must outlive the call and must not be running another batch.
  sathost::ThreadPool* pool = nullptr;

  /// Output storage mode (docs/host_engine.md, "Storage modes"). The
  /// non-dense modes each have one producer, whatever cpu_engine says.
  /// kTiledResidual runs the SKSS-LB residual encoder (bit-exact for
  /// integral T while every tile-local SAT fits T — a range extension past
  /// dense T); through the dense-result entry points it is decoded back
  /// into the caller's buffer, so use compute_sat_tiled to keep the
  /// compressed form. cpu_tile_w doubles as the residual tile width
  /// (0 ⇒ kDefaultResidualTileW). kKahanF32 requires a floating-point
  /// element type and runs the compensated SIMD sweep (sathost::sat_kahan)
  /// per image: every cell stays within 1 ulp of the exact sum, past the
  /// 2^24 boundary where plain f32 drifts.
  Storage storage = Storage::kDense;

  /// Optional observability (see docs/observability.md; neither owned).
  /// `metrics` receives the run's host.* metric set; `trace` receives
  /// Chrome trace_events spans (look-back tiles, host pool chunks). Null ⇒
  /// zero instrumentation cost beyond a pointer test per coarse event.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Run statistics: which producer wrote the table ("cpu-<producer>", plus
/// "-batch" from the batch entry points).
struct Stats {
  std::string algorithm;
};

template <class T>
struct Result {
  Matrix<T> table;
  Stats stats;
};

/// Computes the summed area table of `input`, any non-empty shape.
/// Throws satutil::CheckError on precondition violations.
template <class T>
Result<T> compute_sat(const Matrix<T>& input, const Options& opts = {});

/// Result of a batched computation: per-image tables plus the call's
/// statistics.
template <class T>
struct BatchResult {
  std::vector<Matrix<T>> tables;
  Stats stats;
};

/// Computes the SATs of a batch of equally-shaped matrices. The SKSS-LB
/// engine and the residual encoder run the whole batch through ONE engine
/// pass (one claim counter), so tiles of image k+1 pipeline behind the
/// draining tail of image k (sathost::sat_skss_lb_batch); the other
/// producers run image-at-a-time.
template <class T>
BatchResult<T> compute_sat_batch(const std::vector<Matrix<T>>& inputs,
                                 const Options& opts = {});

/// compute_sat_batch directly into caller-owned output views — the service
/// hot path (tools/satd): no per-request Matrix allocation or result copy,
/// and with Options::pool set no per-request thread creation either. All
/// inputs must share one shape; each outputs[b] must match it and not
/// alias inputs[b].
template <class T>
Stats compute_sat_batch_into(
    const std::vector<satutil::Span2d<const T>>& inputs,
    const std::vector<satutil::Span2d<T>>& outputs, const Options& opts = {});

/// Default tile width for Storage::kTiledResidual when Options::cpu_tile_w
/// is 0. Wider residual tiles amortize the per-tile wide base vectors but
/// widen each tile's value range (pushing more tiles from u16 to u32);
/// 256 balances the two for byte-valued inputs while keeping the encoder's
/// staging buffer cache-resident.
inline constexpr std::size_t kDefaultResidualTileW = 256;

/// Result of a tiled-residual computation: the compressed table itself (use
/// sat::region_sum / TiledSat::value for decompress-on-the-fly queries, or
/// TiledSat::decode_into for a dense copy) plus the run's statistics.
template <class T>
struct TiledResult {
  TiledSat<T> table;
  Stats stats;
};

/// Computes the SAT of `input` in tiled base+residual form without ever
/// materializing the dense table (Storage::kTiledResidual kept compressed).
/// Runs the SKSS-LB residual encoder on cpu_threads workers (or
/// Options::pool); Options::storage and cpu_engine are ignored (this entry
/// point IS the residual mode).
template <class T>
TiledResult<T> compute_sat_tiled(const Matrix<T>& input,
                                 const Options& opts = {});

/// Validates that `table` is the SAT of `input` (exact for integral T,
/// relative-tolerance for floating T). Returns the first mismatch message
/// or std::nullopt when valid.
template <class T>
std::optional<std::string> validate_sat(const Matrix<T>& input,
                                        const Matrix<T>& table,
                                        double rel_tol = 1e-4);

}  // namespace sat
