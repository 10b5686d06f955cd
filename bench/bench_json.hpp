// Minimal JSON perf-ledger writer for the BENCH_*.json files at the repo
// root. Deliberately dependency-free (no google-benchmark, no json lib) so
// tools/run_benches builds everywhere the library builds.
//
// Schema (one object per file; documented in docs/host_engine.md):
//   {
//     "schema": "satlib-bench-v2",
//     "git_rev": "<short sha or 'unknown'>",
//     "simd_backend": "avx2" | "scalar",
//     "machine": { "nproc", "cpu_model", "simd_backend" },
//     "smoke": true | false,
//     "results": [ { "name", "impl", "dtype", "n", "iterations",
//                    "wall_ms", "melem_per_s", "ns_per_elem",
//                    "overhead_vs_copy_pct"  (optional),
//                    "metrics": {...}  (optional, v2) }, ... ]
//   }
// v2 adds the optional per-row "metrics" object: an obs::Snapshot::to_json()
// of the run's metric registry, accumulated over all timed iterations.
// "overhead_vs_copy_pct" is the row's wall time over a plain copy of the
// same bytes on the same machine, in percent (the paper's yardstick).
// "machine" names the box the rows were measured on, so two ledgers are
// never compared raw across machines by accident (tools/ledger_diff.py
// prints both descriptors).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace satbench {

/// One measured configuration. `wall_ms` is the best-of-`iterations` wall
/// time for a single run; rates are derived from it and `n` (elements =
/// n*n for 2-D benchmarks — the caller passes the element count directly).
struct Record {
  std::string name;     ///< e.g. "host_sat/simd/4096"
  std::string impl;     ///< e.g. "simd", "sequential", "skss_lb"
  std::string dtype;    ///< e.g. "f32"
  std::size_t n = 0;    ///< problem edge length
  std::size_t elems = 0;  ///< elements processed per run (n*n for SAT)
  int iterations = 0;   ///< timed repetitions (best-of)
  double wall_ms = 0.0;
  /// Serialized obs::Snapshot::to_json() of the run's metrics registry,
  /// covering every timed iteration. Empty ⇒ the "metrics" field is omitted.
  std::string metrics_json;
  /// 100 · (wall_ms / copy floor − 1); unset ⇒ the field is omitted.
  std::optional<double> overhead_vs_copy_pct;
  [[nodiscard]] double melem_per_s() const;
  [[nodiscard]] double ns_per_elem() const;
};

/// Times `fn` `iterations` times and returns the best wall time in ms.
double time_best_ms(int iterations, const void* tag, void (*fn)(const void*));

/// Convenience wrapper so call sites can pass any callable.
template <class F>
double time_best_ms(int iterations, F&& fn) {
  using Fn = std::remove_reference_t<F>;
  return time_best_ms(
      iterations, static_cast<const void*>(&fn),
      [](const void* p) { (*static_cast<const Fn*>(p))(); });
}

/// Compile-time metadata baked by CMake (git rev) and util/simd.hpp
/// (backend). Exposed for the file header and for run_benches logging.
[[nodiscard]] const char* git_rev();

/// The "model name" of the first CPU listed in `cpuinfo_path`, or "unknown"
/// when the file is absent or names no model.
[[nodiscard]] std::string cpu_model(
    const std::string& cpuinfo_path = "/proc/cpuinfo");

/// Writes the ledger to `path` (overwriting), creating missing parent
/// directories first. The header's "machine" object records
/// std::thread::hardware_concurrency(), cpu_model() and `simd_backend`.
/// On I/O failure prints a diagnostic naming the path to stderr and
/// returns false — a run is never dropped silently.
bool write_json(const std::string& path, const std::vector<Record>& results,
                const char* simd_backend, bool smoke);

}  // namespace satbench
