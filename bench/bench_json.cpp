#include "bench_json.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <thread>

#ifndef SATLIB_GIT_REV
#define SATLIB_GIT_REV "unknown"
#endif

namespace satbench {

double Record::melem_per_s() const {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(elems) / (wall_ms * 1e3);
}

double Record::ns_per_elem() const {
  if (elems == 0) return 0.0;
  return wall_ms * 1e6 / static_cast<double>(elems);
}

double time_best_ms(int iterations, const void* tag, void (*fn)(const void*)) {
  using clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (int it = 0; it < iterations; ++it) {
    const auto t0 = clock::now();
    fn(tag);
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

const char* git_rev() { return SATLIB_GIT_REV; }

std::string cpu_model(const std::string& cpuinfo_path) {
  std::ifstream in(cpuinfo_path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t from = line.find_first_not_of(" \t", colon + 1);
    if (from != std::string::npos) return line.substr(from);
  }
  return "unknown";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

bool write_json(const std::string& path, const std::vector<Record>& results,
                const char* simd_backend, bool smoke) {
  // A missing parent directory used to make fopen fail and the run vanish;
  // create it, and name the path loudly if anything still goes wrong.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      std::fprintf(stderr,
                   "bench_json: cannot create directory '%s' for '%s': %s\n",
                   parent.string().c_str(), path.c_str(),
                   ec.message().c_str());
      return false;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot open '%s' for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"satlib-bench-v2\",\n"
               "  \"git_rev\": \"%s\",\n"
               "  \"simd_backend\": \"%s\",\n"
               "  \"machine\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
               "\"simd_backend\": \"%s\"},\n"
               "  \"smoke\": %s,\n"
               "  \"results\": [\n",
               git_rev(), simd_backend, std::thread::hardware_concurrency(),
               json_escape(cpu_model()).c_str(), simd_backend,
               smoke ? "true" : "false");
  for (std::size_t k = 0; k < results.size(); ++k) {
    const Record& r = results[k];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"impl\": \"%s\", \"dtype\": \"%s\", "
                 "\"n\": %zu, \"iterations\": %d, \"wall_ms\": %.4f, "
                 "\"melem_per_s\": %.2f, \"ns_per_elem\": %.4f",
                 r.name.c_str(), r.impl.c_str(), r.dtype.c_str(), r.n,
                 r.iterations, r.wall_ms, r.melem_per_s(), r.ns_per_elem());
    if (r.overhead_vs_copy_pct)
      std::fprintf(f, ", \"overhead_vs_copy_pct\": %.1f",
                   *r.overhead_vs_copy_pct);
    if (!r.metrics_json.empty())
      std::fprintf(f, ", \"metrics\": %s", r.metrics_json.c_str());
    std::fprintf(f, "}%s\n", k + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_json: error closing '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace satbench
