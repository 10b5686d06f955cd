#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace obs {

std::size_t this_thread_shard() noexcept {
  // satlint: allow(atomic-whitelist) -- thread→shard assignment ticket,
  // part of the audited registry pair (registry.hpp is whitelisted); the
  // counter orders nothing, each thread only needs a distinct residue.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return mine;
}

namespace {

/// Minimal JSON string escaping (metric names are code-controlled, but a
/// malformed ledger is worse than four branches).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

const HistogramSnapshot* Snapshot::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms)
    if (n == name) return &h;
  return nullptr;
}

const std::uint64_t* Snapshot::counter(std::string_view name) const {
  for (const auto& [n, c] : counters)
    if (n == name) return &c;
  return nullptr;
}

const double* Snapshot::gauge(std::string_view name) const {
  for (const auto& [n, g] : gauges)
    if (n == name) return &g;
  return nullptr;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(counters[i].first) << "\":" << counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(gauges[i].first)
       << "\":" << format_double(gauges[i].second);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i != 0) os << ',';
    const HistogramSnapshot& h = histograms[i].second;
    os << '"' << json_escape(histograms[i].first) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"max\":" << h.max
       << ",\"mean\":" << format_double(h.mean()) << ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << '[' << bucket_lower(b) << ',' << bucket_upper(b) << ','
         << h.buckets[b] << ']';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string Snapshot::to_pretty() const {
  std::ostringstream os;
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : counters)
      os << "  " << name << " = " << v << '\n';
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, v] : gauges)
      os << "  " << name << " = " << format_double(v) << '\n';
  }
  for (const auto& [name, h] : histograms) {
    os << "histogram " << name << ": count " << h.count << ", mean "
       << format_double(h.mean()) << ", max " << h.max << '\n';
    if (h.count == 0) continue;
    std::uint64_t peak = 0;
    for (const std::uint64_t b : h.buckets) peak = std::max(peak, b);
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      char label[48];
      if (b == 0) {
        std::snprintf(label, sizeof label, "%20s", "0");
      } else if (b == kHistBuckets - 1) {
        std::snprintf(label, sizeof label, "%14llu..inf",
                      static_cast<unsigned long long>(bucket_lower(b)));
      } else {
        std::snprintf(label, sizeof label, "%9llu..%-9llu",
                      static_cast<unsigned long long>(bucket_lower(b)),
                      static_cast<unsigned long long>(bucket_upper(b)));
      }
      const auto bar =
          static_cast<std::size_t>(40.0 * static_cast<double>(h.buckets[b]) /
                                   static_cast<double>(peak));
      os << "  " << label << " | " << std::string(std::max<std::size_t>(bar, 1), '#')
         << ' ' << h.buckets[b] << '\n';
    }
  }
  return os.str();
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    out.histograms.emplace_back(name, h->snapshot());
  return out;
}

}  // namespace obs
