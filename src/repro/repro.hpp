// The reproduction library: the paper's algorithms on the simulated TITAN V.
//
//   sat::Matrix<float> img = ...;
//   satrepro::Result<float> r = satrepro::compute_sat(img);  // 1R1W-SKSS-LB
//   r.stats.kernel_calls, r.stats.element_reads, r.stats.critical_path_us
//
// The statistics expose exactly what the paper measures: kernel calls,
// global-memory traffic, and the modeled device running time. The host
// engines that run the same algorithm on real threads are the host core's
// (core/api.hpp); both return tables that sat::validate_sat and
// sat::region_sum accept.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "gpusim/gpusim.hpp"
#include "sat/params.hpp"
#include "sat/registry.hpp"

namespace obs {
class Registry;
class TraceSink;
}  // namespace obs

namespace satrepro {

/// Options for a simulated run. Defaults reproduce the paper's best
/// configuration: 1R1W-SKSS-LB, W = 128, 1024-thread blocks, diagonal
/// shared-memory arrangement, on the TITAN V.
struct Options {
  satalgo::Algorithm algorithm = satalgo::Algorithm::kSkssLb;
  /// Tile width W (a positive multiple of 32), block size, shared-memory
  /// arrangement, dispatch order and seed, the hybrid's r, and the checker
  /// tests' fault injection.
  satalgo::SatParams params{.tile_w = 128};
  gpusim::DeviceConfig device = gpusim::DeviceConfig::titan_v();

  /// Optional soft-sync protocol verifier (not owned). When set, the run
  /// records a happens-before graph and throws gpusim::ProtocolError on
  /// races, unordered dependencies, or protocol state-machine violations.
  gpusim::ProtocolChecker* checker = nullptr;

  /// Optional observability (see docs/observability.md; neither owned):
  /// the sim.* metric set, and Chrome trace_events spans for block
  /// lifetimes, look-backs and flag waits.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Statistics of a simulated run, summed over its kernel launches.
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
  sat::Matrix<T> table;
  Stats stats;
};

/// Computes the summed area table of `input` on the simulated device. Any
/// non-empty shape is accepted: each dimension is zero-padded to the tile
/// width internally (the paper's setting) and the result is cropped.
///
/// Throws satutil::CheckError on precondition violations and
/// gpusim::SimError on simulator-detected failures.
template <class T>
Result<T> compute_sat(const sat::Matrix<T>& input, const Options& opts = {});

/// Per-image tables plus the single launch's statistics.
template <class T>
struct BatchResult {
  std::vector<sat::Matrix<T>> tables;
  Stats stats;
};

/// Computes the SATs of a batch of equally-shaped matrices in ONE simulated
/// kernel launch (batched 1R1W-SKSS-LB; Options::algorithm is not read).
/// This is the fix for the paper's small-matrix underutilization: a single
/// 256² image offers only a handful of blocks to the 80-SM device, but a
/// batch of them saturates it — bench_batch quantifies the effect.
template <class T>
BatchResult<T> compute_sat_batch(const std::vector<sat::Matrix<T>>& inputs,
                                 const Options& opts = {});

/// Device-wide inclusive prefix sum of a 1-D array using the
/// Merrill–Garland single-pass look-back scan [10,11] on the simulated GPU.
template <class T>
std::vector<T> inclusive_scan(const std::vector<T>& values,
                              const Options& opts = {});

/// Picks the fastest (algorithm, tile width) for a rows×cols workload by
/// pricing the candidates with the performance model on the configured
/// device (count-only runs; a few milliseconds of host time). Returns a
/// copy of `base` with algorithm and params.tile_w replaced by the winner.
Options auto_tune(std::size_t rows, std::size_t cols, const Options& base = {});

}  // namespace satrepro
