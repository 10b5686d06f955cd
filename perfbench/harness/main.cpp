// perfbench: the repository benchmark's measuring program. run.py builds it
// and calls
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --satd PATH --work-dir DIR [--rev REV]
//
// It prints a machine descriptor line, then the result object as the last
// line of stdout; progress goes to stderr. Exit status 1 on any wrong
// output, 2 on a usage or set-up error.
#include <unistd.h>

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string g_workload = "perfbench";
const Clock::time_point g_start = Clock::now();

std::string read_first_match(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string v = line.substr(colon + 1);
      while (!v.empty() && (v.front() == ' ' || v.front() == '\t'))
        v.erase(v.begin());
      return v;
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// nproc, CPU model, SIMD backend, LLC, RAM and source revision: printed
/// with every result so that figures are never compared across machines
/// by accident.
std::string machine_descriptor(const RunConfig& cfg, const std::string& rev) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (in >> s && !s.empty()) {
      llc = std::atol(s.c_str());
      if (s.back() == 'K') llc <<= 10;
      if (s.back() == 'M') llc <<= 20;
    }
  }
  const double ram_gib = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                         static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         (1024.0 * 1024.0 * 1024.0);
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(cfg.workload) << "\",\"seed\":"
     << cfg.seed << ",\"seconds\":" << cfg.seconds
     << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"nproc\":"
     << worker_count() << ",\"cpu\":\""
     << json_escape(read_first_match("/proc/cpuinfo", "model name"))
     << "\",\"simd\":\"" << satsimd::backend_name() << "\",\"llc_mib\":"
     << (llc > 0 ? static_cast<double>(llc) / (1024.0 * 1024.0) : 0.0)
     << ",\"ram_gib\":" << ram_gib << ",\"rev\":\"" << json_escape(rev)
     << "\"}";
  return os.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "host_bulk|query_mixed|paper_table3 --seed N "
               "--seconds S --trace 0|1 --satd PATH --work-dir DIR [--rev "
               "REV]\n",
               why);
  return 2;
}

}  // namespace

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  const std::string v = read_first_match(path.c_str(), "VmHWM");
  return std::atof(v.c_str()) / 1024.0;  // the kernel reports kB
}

std::size_t worker_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn();
    t.push_back(seconds_between(a, Clock::now()));
  }
  return median(t);
}

void report_end_to_end(const EndToEnd& e, Report& rep) {
  note("%zu operations", e.latency_ms.size());
  rep.metric("setup_s", e.setup_s, "s");
  rep.metric("peak_rss_mib", e.peak_rss_mib, "MiB");
  rep.metric("latency_ms_p50", median(e.latency_ms), "ms");
  rep.metric("throughput_per_s", e.throughput_per_s, "1/s");
}

void write_trace(const RunConfig& cfg, const Tracer& tracer) {
  const std::string path = cfg.work_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".trace.json";
  if (tracer.write_chrome(path))
    note("wrote %zu spans to %s", tracer.spans().size(), path.c_str());
  else
    note("could not write %s", path.c_str());
}

void report_phases(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, Report& rep) {
  const double tail = tail_percentile(untraced_ms.size());
  if (tail == 0) {
    rep.fail("too few untraced samples for a tail: " +
             std::to_string(untraced_ms.size()));
    return;
  }
  note("latency tail of %zu untraced operations reported at p%g",
       untraced_ms.size(), tail);
  rep.metric("latency_ms_tail", percentile(untraced_ms, tail), "ms");
  rep.metric("obs.trace_overhead_pct",
             overhead_pct(median(traced_ms), median(untraced_ms)), "%");
}

void parallel_blocks(std::size_t blocks,
                     const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t b = next++; b < blocks; b = next++) fn(b);
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < worker_count(); ++t) threads.emplace_back(body);
  body();
  for (auto& t : threads) t.join();
}

void note(const char* fmt, ...) {
  std::fprintf(stderr, "[%s +%.1fs] ", g_workload.c_str(),
               seconds_between(g_start, Clock::now()));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string rev = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--satd") cfg.satd_path = v;
    else if (k == "--work-dir") cfg.work_dir = v;
    else if (k == "--rev") rev = v;
    else if (k == "--bench-dir") cfg.bench_dir = v;
    else if (k == "--write-golden") cfg.write_golden = v == "1";
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (cfg.work_dir.empty()) return usage("--work-dir is required");
  cfg.trace = trace == 1;
  g_workload = cfg.workload;

  std::printf("perfbench machine %s\n", machine_descriptor(cfg, rev).c_str());
  std::fflush(stdout);

  Report rep;
  try {
    if (cfg.workload == "host_bulk") run_host_bulk(cfg, rep);
    else if (cfg.workload == "query_mixed") run_query_mixed(cfg, rep);
    else if (cfg.workload == "paper_table3") run_paper_table3(cfg, rep);
    else return usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }

  // Per-layer metrics of layers this workload does not exercise are added
  // as 0 by run.py, from BENCHMARK.json.
  if (cfg.trace && rep.attempted() > 0)
    rep.metric("failed_ratio", failed_ratio(rep.failed(), rep.attempted()),
               "ratio");
  if (!rep.first_failure().empty())
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed; first: %s\n",
                 static_cast<unsigned long long>(rep.failed()),
                 static_cast<unsigned long long>(rep.attempted()),
                 rep.first_failure().c_str());
  std::printf("%s\n", rep.to_json().c_str());
  return rep.correct() ? 0 : 1;
}
