// perfbench core: statistics, ratios, the result line, and the span recorder.
//
// Everything here is self-contained (no satlib headers) so that
// selftest/selftest.cpp can check the benchmark's own arithmetic in
// isolation: the tail rule, open-loop due-time accounting, metric-name
// validity and the denominator of every ratio the benchmark reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics ----------------------------------------------------------

/// ceil(p% of n), immune to p/100·n landing a rounding error above an
/// integer (99.9% of 10000 must be rank 9990, not 9991).
inline double nearest_rank(std::size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; `v` must be non-empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double rank = nearest_rank(v.size(), p);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(n, static_cast<std::size_t>(nearest_rank(n, p)));
}

/// The tail rule: the highest percentile of {75, 80, 90, 95, 99, 99.9}
/// that still has at least ten samples beyond it; 0 when even p75 has not
/// (fewer than 40 samples). A reported tail must not exceed this.
inline double tail_percentile(std::size_t n) {
  double best = 0;
  for (double p : {75.0, 80.0, 90.0, 95.0, 99.0, 99.9})
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

/// One bucket of a published histogram: values in [lo, hi], `count` of them.
struct Bucket {
  double lo = 0, hi = 0, count = 0;
};

/// Percentile of a bucketed histogram (buckets in ascending order),
/// interpolated linearly inside the bucket that holds the nearest rank.
/// Returns 0 for an empty histogram.
inline double bucket_percentile(const std::vector<Bucket>& buckets, double p) {
  double total = 0;
  for (const Bucket& b : buckets) total += b.count;
  if (total <= 0) return 0;
  const double rank = std::max(1.0, std::ceil(p / 100.0 * total));
  double seen = 0;
  for (const Bucket& b : buckets) {
    if (seen + b.count >= rank)
      return b.lo + (b.hi - b.lo) * (rank - seen) / b.count;
    seen += b.count;
  }
  return buckets.back().hi;
}

/// Latency of each request of an open loop, charged from when it was DUE,
/// not from when it was sent: a stall in the system (or in the generator)
/// delays the sends of every later request, and that wait is part of what
/// those requests' callers experience.
inline std::vector<double> latencies_from_due(const std::vector<double>& due,
                                              const std::vector<double>& done) {
  if (due.size() != done.size())
    throw std::invalid_argument("due/done length mismatch");
  std::vector<double> out(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) out[i] = done[i] - due[i];
  return out;
}

// ---- ratios (every one names its denominator) ---------------------------

inline double ratio(double num, double den, const char* what) {
  if (!(den > 0))
    throw std::invalid_argument(std::string("ratio with empty denominator: ") +
                                what);
  return num / den;
}

/// failed ÷ attempted.
inline double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
  return ratio(static_cast<double>(failed), static_cast<double>(attempted),
               "failed_ratio (attempted)");
}
/// How much slower `t` is than `floor`, in percent of `floor`.
inline double overhead_pct(double t, double floor) {
  return 100.0 * (ratio(t, floor, "overhead_pct (floor)") - 1.0);
}
/// requests ÷ batches: the coalescing yield of the daemon.
inline double batch_size_mean(std::uint64_t requests, std::uint64_t batches) {
  return ratio(static_cast<double>(requests), static_cast<double>(batches),
               "batch_size_mean (batches)");
}
/// fastpath_tiles ÷ tiles_retired.
inline double fastpath_ratio(std::uint64_t fastpath, std::uint64_t retired) {
  return ratio(static_cast<double>(fastpath), static_cast<double>(retired),
               "fastpath_ratio (tiles_retired)");
}
/// OVERLOADED replies ÷ requests the daemon received.
inline double rejected_ratio(std::uint64_t rejected, std::uint64_t requests) {
  return ratio(static_cast<double>(rejected), static_cast<double>(requests),
               "rejected_ratio (requests)");
}
/// residual bytes ÷ dense bytes of the same table.
inline double bytes_ratio(std::uint64_t residual, std::uint64_t dense) {
  return ratio(static_cast<double>(residual), static_cast<double>(dense),
               "bytes_ratio (dense bytes)");
}
/// count ÷ seconds.
inline double per_second(double count, double seconds) {
  return ratio(count, seconds, "per_second (seconds)");
}

// ---- the result line -----------------------------------------------------

/// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  for (char c : s)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

/// [A-Za-z0-9_/%.-]{1,16}
inline bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One run's outcome, printed as the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name) || !valid_unit(unit))
      throw std::invalid_argument("invalid metric name or unit: " + name +
                                  " [" + unit + "]");
    if (!metrics_.emplace(name, std::make_pair(value, unit)).second)
      throw std::invalid_argument("metric reported twice: " + name);
  }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed_ += n;
    if (first_failure_.empty()) first_failure_ = why;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_failure() const {
    return first_failure_;
  }
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

  [[nodiscard]] std::string to_json() const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics_) {
      if (!first) s += ", ";
      first = false;
      s += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
    }
    s += "}}";
    return s;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into each layer (name, start, end, parent and,
/// for satd requests, the wire trace_id); nothing is written until the run
/// ends. A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t trace_id = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_us() const { return us_at(Clock::now()); }
  [[nodiscard]] double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  /// Opens a span; returns its id (-1 when disabled).
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::uint64_t trace_id = 0) {
    return begin_at(std::move(name), now_us(), parent, trace_id);
  }
  std::int64_t begin_at(std::string name, double start_us,
                        std::int64_t parent = -1, std::uint64_t trace_id = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), start_us, start_us, parent,
                          trace_id});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t id) { end_at(id, now_us()); }
  void end_at(std::int64_t id, double end_us) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it its children cover (children
  /// of one span never overlap each other in this benchmark).
  [[nodiscard]] std::vector<double> self_times_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_us - spans_[i].start_us;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    for (double& v : self) v = std::max(0.0, v);
    return self;
  }

  /// Self times of every span called `name`, in microseconds.
  [[nodiscard]] std::vector<double> self_us_of(std::string_view name) const {
    const std::vector<double> self = self_times_us();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) out.push_back(self[i]);
    return out;
  }

  /// Chrome trace_events JSON ("X" spans on one track; args carry the
  /// parent index and the trace_id).
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"cat\":\"perfbench\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%lld,"
                   "\"trace_id\":\"0x%llx\"}}%s\n",
                   s.name.c_str(), s.trace_id != 0 ? 2 : 1, s.start_us,
                   s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.trace_id),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::int64_t parent = -1,
        std::uint64_t trace_id = 0)
      : t_(t), id_(t.begin(std::move(name), parent, trace_id)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}


}  // namespace perfbench
