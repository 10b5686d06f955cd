// The metrics registry: named counters, gauges, and log2-bucketed
// histograms that every engine layer (gpusim, sathost, satscan, satalgo)
// publishes into. See docs/observability.md for the metric catalogue.
//
// Design constraints, in order:
//   1. Zero overhead when off. Engines hold an `obs::Registry*` that is
//      null by default; every publication site is a single pointer test,
//      and that null pointer is the only off switch.
//   2. Lock-cheap when on. Handles are resolved by name once (per launch /
//      per run — the only mutex in the hot-path design); increments are
//      relaxed atomic adds on cacheline-padded thread-local shards, so the
//      host thread pool's workers never contend on one counter line.
//   3. Snapshot-while-writing is safe and conservative. `snapshot()` merges
//      the shards with plain relaxed loads; totals it reports are always
//      values the metric actually passed through (monotone for counters).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <mutex>
#include <vector>

namespace obs {

/// Number of thread shards per metric. Increments hash the calling thread
/// onto one shard; 8 covers the host pools this repo creates (the simulator
/// is single-threaded) while keeping a histogram under 3 KiB.
inline constexpr std::size_t kShards = 8;

/// Histogram bucket count. Bucket 0 holds the value 0; bucket b in [1, 32]
/// holds values with bit_width b, i.e. the half-open decade [2^(b-1), 2^b);
/// the last bucket holds everything >= 2^32.
inline constexpr std::size_t kHistBuckets = 34;

/// Shard index of the calling thread (stable for the thread's lifetime).
std::size_t this_thread_shard() noexcept;

/// log2 bucket of a value (see kHistBuckets).
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistBuckets - 1 ? w : kHistBuckets - 1;
}

/// Inclusive lower bound of bucket `b`.
[[nodiscard]] constexpr std::uint64_t bucket_lower(std::size_t b) noexcept {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// Inclusive upper bound of bucket `b`.
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= kHistBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

namespace detail {
struct alignas(64) Shard {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[this_thread_shard()].v.fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::Shard, kShards> shards_;
};

/// Last-value gauge (a double: ratios, percentages, occupancies).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged, point-in-time view of one histogram.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  [[nodiscard]] bool empty() const { return count == 0; }
};

/// Fixed-bucket log2 histogram of non-negative integer samples (look-back
/// depths, spin iterations, microsecond durations, queue occupancies).
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    PerShard& s = shards_[this_thread_shard()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    for (const PerShard& s : shards_) {
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
    }
    out.max = max_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  struct alignas(64) PerShard {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<PerShard, kShards> shards_;
  std::atomic<std::uint64_t> max_{0};
};

/// Everything a registry held at one instant, sorted by metric name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
  [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
  [[nodiscard]] const double* gauge(std::string_view name) const;

  /// Compact single-line JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":
  ///    {"count":c,"sum":s,"max":m,"mean":x,
  ///     "buckets":[[lo,hi,count],...]}}}   (zero buckets omitted)
  [[nodiscard]] std::string to_json() const;

  /// Human-readable table with ASCII bucket bars (satcli --metrics=pretty).
  [[nodiscard]] std::string to_pretty() const;
};

/// The registry. Metric handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; resolving a name takes a mutex
/// (do it once per run, not per event).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merges every metric's shards. Safe to call while other threads write.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
