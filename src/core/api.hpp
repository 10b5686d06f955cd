// The satlib public API.
//
//   sat::Matrix<float> img = ...;                      // n×n input
//   sat::Result<float> r = sat::compute_sat(img);      // SAT + run stats
//   float s = sat::region_sum(r.table, {r0, c0, r1, c1});
//
// `compute_sat` executes one of the paper's algorithms on the simulated GPU
// (default: the paper's 1R1W-SKSS-LB) or, with Backend::kCpu, on the host.
// The returned statistics expose exactly what the paper measures: kernel
// calls, global-memory traffic, and the modeled TITAN V running time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/matrix.hpp"
#include "core/region.hpp"
#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"
#include "sat/registry.hpp"
#include "sat/storage.hpp"

namespace obs {
class Registry;
class TraceSink;
}  // namespace obs

namespace sathost {
class ThreadPool;
}  // namespace sathost

namespace sat {

enum class Backend {
  kSimulatedGpu,  ///< run a paper algorithm on the gpusim device
  kCpu,           ///< run the multithreaded host implementation
};

/// Host engine for Storage::kDense on Backend::kCpu (see
/// docs/host_engine.md). The other storage modes have one producer each
/// and ignore it.
enum class CpuEngine {
  kSequential,  ///< single-threaded scalar reference
  kSimd,        ///< single-threaded fused SIMD sweep
  kSkssLb,      ///< the paper's 1R1W-SKSS-LB on worker threads
};

/// Options for compute_sat. Defaults reproduce the paper's best
/// configuration (1R1W-SKSS-LB, W = 128, 1024-thread blocks, diagonal
/// shared-memory arrangement).
struct Options {
  Backend backend = Backend::kSimulatedGpu;
  satalgo::Algorithm algorithm = satalgo::Algorithm::kSkssLb;
  std::size_t tile_w = 128;
  int threads_per_block = 1024;
  gpusim::SharedArrangement arrangement = gpusim::SharedArrangement::Diagonal;
  gpusim::AssignmentOrder order = gpusim::AssignmentOrder::Natural;
  std::uint64_t seed = 0;
  double hybrid_r = 0.25;
  gpusim::DeviceConfig device = gpusim::DeviceConfig::titan_v();

  /// CPU backend: worker threads (0 = hardware concurrency).
  std::size_t cpu_threads = 0;

  /// CPU backend: which host engine computes a kDense table
  /// (docs/host_engine.md compares them; kSkssLb is the paper's algorithm
  /// on the host).
  CpuEngine cpu_engine = CpuEngine::kSkssLb;

  /// CPU backend: SKSS-LB tile width. Any positive value — the host has no
  /// warp-multiple constraint. 0 = automatic worker-count-scaled width (see
  /// sathost::SkssLbOptions::tile_w).
  std::size_t cpu_tile_w = 0;

  /// CPU backend: an external, caller-owned thread pool. Null (the default)
  /// makes each call construct its own `cpu_threads`-wide pool — fine for
  /// one-shot use, but a long-running server (tools/satd) pays thread
  /// start-up on every request that way. When set, the call runs on this
  /// pool instead and `cpu_threads` is ignored; the pool's observability
  /// (ThreadPool::set_obs) is the owner's to configure and is NOT
  /// overwritten (engine-level hooks still honor `metrics`/`trace` below).
  /// The pool must outlive the call and must not be running another batch.
  sathost::ThreadPool* pool = nullptr;

  /// Optional soft-sync protocol verifier (not owned). When set, the
  /// simulated-GPU backend records a happens-before graph of the run and
  /// throws gpusim::ProtocolError on races, unordered dependencies, or
  /// protocol state-machine violations. Ignored by the CPU backend.
  gpusim::ProtocolChecker* checker = nullptr;

  /// Fault injection for checker tests (forwarded to SatParams).
  satalgo::FaultInjection inject = satalgo::FaultInjection::kNone;
  std::size_t inject_serial = 0;

  /// Output storage mode (docs/host_engine.md, "Storage modes"). The
  /// non-dense modes are CPU-backend only and each has one producer,
  /// whatever cpu_engine says. kTiledResidual runs the SKSS-LB residual
  /// encoder (bit-exact for integral T while every tile-local SAT fits T —
  /// a range extension past dense T); through the dense-result entry points
  /// it is decoded back into the caller's buffer, so use compute_sat_tiled
  /// to keep the compressed form. cpu_tile_w doubles as the residual tile
  /// width (0 ⇒ kDefaultResidualTileW). kKahanF32 requires a
  /// floating-point element type and runs the compensated SIMD sweep
  /// (sathost::sat_kahan) per image: every cell stays within 1 ulp of the
  /// exact sum, past the 2^24 boundary where plain f32 drifts.
  Storage storage = Storage::kDense;

  /// Optional observability (see docs/observability.md; neither owned).
  /// `metrics` receives the run's metric set — sim.* from the simulated-GPU
  /// backend, host.* from the CPU backend; `trace` receives Chrome
  /// trace_events spans (block lifetimes, look-backs, flag waits, host pool
  /// chunks). Null ⇒ zero instrumentation cost beyond a pointer test per
  /// coarse event.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Run statistics (simulated-GPU backend; zeros for the CPU backend except
/// wall_time_available).
struct Stats {
  std::string algorithm;
  /// Side of the square, tile-aligned matrix the kernels actually ran on.
  /// Equals the input side when it is already square and a multiple of the
  /// tile width; otherwise the input was zero-padded (zero padding on the
  /// bottom/right does not change any SAT entry in the original region) and
  /// the traffic counters below refer to the padded size.
  std::size_t padded_n = 0;
  std::size_t kernel_calls = 0;
  std::size_t max_threads = 0;
  std::uint64_t element_reads = 0;
  std::uint64_t element_writes = 0;
  std::uint64_t global_read_sectors = 0;
  std::uint64_t global_write_sectors = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t flag_reads = 0;
  std::uint64_t flag_writes = 0;
  std::size_t max_lookback_depth = 0;
  double critical_path_us = 0.0;
};

template <class T>
struct Result {
  Matrix<T> table;
  Stats stats;
};

/// Computes the summed area table of `input`. Any non-empty shape is
/// accepted: the simulated-GPU backend zero-pads to a square multiple of
/// the tile width internally (the paper's setting) and crops the result;
/// the CPU backend runs the exact shape.
///
/// Throws satutil::CheckError on precondition violations and
/// gpusim::SimError on simulator-detected failures.
template <class T>
Result<T> compute_sat(const Matrix<T>& input, const Options& opts = {});

/// Result of a batched computation: per-image tables plus the single
/// launch's statistics.
template <class T>
struct BatchResult {
  std::vector<Matrix<T>> tables;
  Stats stats;
};

/// Computes the SATs of a batch of equally-shaped matrices in ONE simulated
/// kernel launch (batched 1R1W-SKSS-LB). This is the fix for the paper's
/// small-matrix underutilization: a single 256² image offers only a handful
/// of blocks to the 80-SM device, but a batch of them saturates it —
/// bench_batch quantifies the effect.
template <class T>
BatchResult<T> compute_sat_batch(const std::vector<Matrix<T>>& inputs,
                                 const Options& opts = {});

/// Computes the SATs of a batch of equally-shaped images directly into
/// caller-owned output views — the service hot path (tools/satd): no
/// per-request Matrix allocation or result copy, and with Options::pool set
/// no per-request thread creation either. CPU backend only (the simulated
/// device owns its buffers; Options::backend must be kCpu). The SKSS-LB
/// engine and the residual encoder run the whole batch through ONE
/// engine pass (one claim counter), so tiles of image k+1 pipeline behind
/// the draining tail of image k (sathost::sat_skss_lb_batch); the other
/// producers run image-at-a-time. All inputs must share one shape; each
/// outputs[b] must match it and not alias inputs[b].
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
/// CPU backend only. Runs the SKSS-LB residual encoder on cpu_threads
/// workers (or Options::pool); Options::storage and cpu_engine are ignored
/// (this entry point IS the residual mode).
template <class T>
TiledResult<T> compute_sat_tiled(const Matrix<T>& input,
                                 const Options& opts = {});

/// Device-wide inclusive prefix sum of a 1-D array using the
/// Merrill–Garland single-pass look-back scan [10,11] on the simulated GPU.
template <class T>
std::vector<T> inclusive_scan(const std::vector<T>& values,
                              const Options& opts = {});

/// Picks the fastest (algorithm, tile width) for a rows×cols workload by
/// pricing the candidates with the performance model on the configured
/// device (count-only runs; a few milliseconds of host time). Returns a
/// copy of `base` with algorithm/tile_w replaced by the winner.
Options auto_tune(std::size_t rows, std::size_t cols, const Options& base = {});

/// Validates that `table` is the SAT of `input` (exact for integral T,
/// relative-tolerance for floating T). Returns the first mismatch message
/// or std::nullopt when valid.
template <class T>
std::optional<std::string> validate_sat(const Matrix<T>& input,
                                        const Matrix<T>& table,
                                        double rel_tol = 1e-4);

}  // namespace sat
