// The workloads and what they share. Each workload builds its inputs
// from the seed, measures for `seconds`, checks every output it receives,
// and fills a Report: end-to-end metrics untraced, per-layer metrics in the
// traced run (main.cpp adds zeros for layers a workload does not use).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string satd_path;  ///< the daemon binary
  std::string work_dir;   ///< scratch inside the checkout (port files, traces)
  std::string bench_dir;  ///< perfbench/ itself (the stored golden counters)
  bool write_golden = false;  ///< paper_table3: rewrite the golden file
};

void run_host_bulk(const RunConfig& cfg, Report& rep);
void run_query_mixed(const RunConfig& cfg, Report& rep);
void run_paper_table3(const RunConfig& cfg, Report& rep);

/// The satd layer's per-layer metrics (host_bulk's traced run): the daemon
/// binary driven over loopback, untraced and traced (satd_layer.cpp).
void measure_satd_layer(const RunConfig& cfg, Report& rep);

// ---- shared helpers (main.cpp) --------------------------------------------

/// Peak resident set (VmHWM) of a process, in MiB; pid 0 = this process.
double peak_rss_mib(int pid = 0);

/// Worker count the workloads use: the online CPUs.
std::size_t worker_count();

/// Median of `reps` timed calls of `fn`, in seconds (set-up timings).
double median_seconds(int reps, const std::function<void()>& fn);

/// The end-to-end metrics every workload reports, in one place so their
/// names and units cannot drift between workloads.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mib = 0;
  std::vector<double> latency_ms;  ///< one sample per operation
  double throughput_per_s = 0;
};
void report_end_to_end(const EndToEnd& e, Report& rep);

/// Writes a traced run's spans next to the other run artefacts and logs
/// where they went.
void write_trace(const RunConfig& cfg, const Tracer& tracer);

/// Traced-run figures from the two phases' latencies: latency_ms_tail (the
/// untraced phase's highest percentile with ten samples beyond it) and
/// obs.trace_overhead_pct (how much the traced phase's median exceeds the
/// untraced one: the price of the benchmark's spans plus engine counters).
void report_phases(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, Report& rep);

/// Stderr progress line, prefixed with the workload.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Runs fn(block) for block in [0, blocks) on worker_count() plain threads.
/// The benchmark's own input generation and output checks use this, never
/// the library's pool, so harness work does not show up in the library's
/// counters.
void parallel_blocks(std::size_t blocks,
                     const std::function<void(std::size_t)>& fn);

/// splitmix64 of (seed, stream): independent seeds for per-block generators.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
