// Tests for src/obs/: the metrics registry (sharded counters, log2
// histograms, snapshot-while-writing) and the Chrome-trace sink, plus the
// golden end-to-end check that an instrumented SKSS-LB run emits trace JSON
// that parses back with correct span nesting.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/algo_skss_lb.hpp"

namespace {

// ---------------------------------------------------------------------------
// Bucket math.

TEST(Buckets, BoundaryCases) {
  using obs::bucket_of;
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(7), 3u);
  EXPECT_EQ(bucket_of(8), 4u);
  EXPECT_EQ(bucket_of((std::uint64_t{1} << 31) - 1), 31u);
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 31), 32u);
  EXPECT_EQ(bucket_of((std::uint64_t{1} << 32) - 1), 32u);
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 32), 33u);
  EXPECT_EQ(bucket_of(std::numeric_limits<std::uint64_t>::max()), 33u);
}

TEST(Buckets, LowerUpperConsistent) {
  for (std::size_t b = 0; b < obs::kHistBuckets; ++b) {
    EXPECT_LE(obs::bucket_lower(b), obs::bucket_upper(b)) << "bucket " << b;
    EXPECT_EQ(obs::bucket_of(obs::bucket_lower(b)), b);
    EXPECT_EQ(obs::bucket_of(obs::bucket_upper(b)), b);
    if (b + 1 < obs::kHistBuckets) {
      EXPECT_EQ(obs::bucket_upper(b) + 1, obs::bucket_lower(b + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Counters / gauges / histograms.

TEST(Counter, SingleThreaded) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsConserveTotals) {
  constexpr int kThreads = 8;
  constexpr int kCountersN = 5;
  constexpr std::uint64_t kIters = 20000;
  obs::Registry reg;
  // Resolve handles up front (the documented usage pattern).
  std::vector<obs::Counter*> counters;
  for (int m = 0; m < kCountersN; ++m)
    counters.push_back(&reg.counter("stress.c" + std::to_string(m)));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters] {
      for (std::uint64_t i = 0; i < kIters; ++i)
        for (int m = 0; m < kCountersN; ++m)
          counters[static_cast<std::size_t>(m)]->add(
              static_cast<std::uint64_t>(m) + 1);
    });
  }
  for (auto& t : threads) t.join();

  const obs::Snapshot snap = reg.snapshot();
  for (int m = 0; m < kCountersN; ++m) {
    const std::uint64_t* v = snap.counter("stress.c" + std::to_string(m));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, kThreads * kIters * (static_cast<std::uint64_t>(m) + 1));
  }
}

TEST(Counter, SnapshotWhileWritingIsMonotone) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("live");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.add();
    });
  }
  // Concurrent snapshots must observe non-decreasing totals: each shard is
  // a single atomic, so successive relaxed reads are coherent per shard and
  // the merged sum cannot go backwards.
  std::uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::Snapshot snap = reg.snapshot();
    const std::uint64_t* v = snap.counter("live");
    ASSERT_NE(v, nullptr);
    EXPECT_GE(*v, prev);
    prev = *v;
  }
  stop = true;
  for (auto& t : writers) t.join();
  EXPECT_LE(prev, c.value());
}

TEST(Gauge, SetAndRead) {
  obs::Registry reg;
  reg.gauge("g").set(12.5);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "g");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 12.5);
}

TEST(Histogram, RecordsIntoCorrectBuckets) {
  obs::Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull})
    h.record(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 25u);
  EXPECT_EQ(s.max, 8u);
  EXPECT_NEAR(s.mean(), 25.0 / 7.0, 1e-12);
  EXPECT_EQ(s.buckets[0], 1u);  // {0}
  EXPECT_EQ(s.buckets[1], 1u);  // {1}
  EXPECT_EQ(s.buckets[2], 2u);  // {2,3}
  EXPECT_EQ(s.buckets[3], 2u);  // {4..7}
  EXPECT_EQ(s.buckets[4], 1u);  // {8..15}
}

TEST(Histogram, ConcurrentRecordsConserveCount) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kIters; ++i) h.record(i & 1023);
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kIters);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.max, 1023u);
}

TEST(Registry, HandlesAreStable) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("h");
  obs::Histogram& h2 = reg.histogram("h");
  EXPECT_EQ(&h1, &h2);
}

TEST(Snapshot, JsonShapeAndLookup) {
  obs::Registry reg;
  reg.counter("c.events").add(3);
  reg.gauge("g.pct").set(50.0);
  reg.histogram("h.depth").record(5);
  const obs::Snapshot snap = reg.snapshot();
  const std::string js = snap.to_json();
  EXPECT_NE(js.find("\"c.events\":3"), std::string::npos) << js;
  EXPECT_NE(js.find("\"g.pct\":50"), std::string::npos) << js;
  EXPECT_NE(js.find("\"h.depth\""), std::string::npos) << js;
  // Zero buckets are omitted: value 5 lands in [4,7] alone.
  EXPECT_NE(js.find("[4,7,1]"), std::string::npos) << js;
  const obs::HistogramSnapshot* h = snap.histogram("h.depth");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
  EXPECT_EQ(snap.counter("missing"), nullptr);
  // Pretty output renders without throwing and mentions every metric.
  const std::string pretty = snap.to_pretty();
  EXPECT_NE(pretty.find("c.events"), std::string::npos);
  EXPECT_NE(pretty.find("h.depth"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip a trace file.

struct Json {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  [[nodiscard]] const Json* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return bool_value();
    if (c == 'n') return null_value();
    return number();
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::Obj;
    expect('{');
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      Json key = string_value();
      expect(':');
      v.obj[key.str] = value();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::Arr;
    expect('[');
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.arr.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::Str;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) fail("bad escape");
        switch (s_[pos_]) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'u':
            pos_ += 4;  // tests never emit non-ASCII; keep a placeholder
            v.str += '?';
            break;
          default: v.str += s_[pos_];
        }
      } else {
        v.str += s_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return v;
  }

  Json bool_value() {
    Json v;
    v.kind = Json::Kind::Bool;
    if (s_.compare(pos_, 4, "true") == 0) { v.b = true; pos_ += 4; }
    else if (s_.compare(pos_, 5, "false") == 0) { v.b = false; pos_ += 5; }
    else fail("bad literal");
    return v;
  }

  Json null_value() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return Json{};
  }

  Json number() {
    Json v;
    v.kind = Json::Kind::Num;
    std::size_t end = 0;
    v.num = std::stod(s_.substr(pos_), &end);
    if (end == 0) fail("bad number");
    pos_ += end;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Trace sink unit behavior.

TEST(TraceSink, SerializesValidJson) {
  obs::TraceSink sink;
  const int pid = sink.register_process("proc \"x\"");
  sink.complete(pid, 3, "span", "cat", 1.0, 2.5, "{\"k\":1}");
  sink.instant(pid, 3, "mark", "cat", 2.0);
  EXPECT_EQ(sink.event_count(), 3u);

  std::ostringstream os;
  sink.write(os);
  const Json root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.kind, Json::Kind::Obj);
  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), 3u);
  EXPECT_EQ(events->arr[0].find("ph")->str, "M");
  EXPECT_EQ(events->arr[0].find("args")->find("name")->str, "proc \"x\"");
  const Json& span = events->arr[1];
  EXPECT_EQ(span.find("ph")->str, "X");
  EXPECT_DOUBLE_EQ(span.find("ts")->num, 1.0);
  EXPECT_DOUBLE_EQ(span.find("dur")->num, 2.5);
  EXPECT_DOUBLE_EQ(span.find("args")->find("k")->num, 1.0);
  EXPECT_EQ(events->arr[2].find("ph")->str, "i");
}

TEST(TraceSink, WriteFileFailsLoudlyOnBadPath) {
  obs::TraceSink sink;
  EXPECT_FALSE(sink.write_file("/nonexistent-dir-xyz/trace.json"));
}

// ---------------------------------------------------------------------------
// Golden end-to-end: an instrumented SKSS-LB run emits a parseable trace
// with nested spans and a non-empty look-back-depth histogram.

TEST(GoldenTrace, SkssLbRunRoundTrips) {
  obs::Registry reg;
  obs::TraceSink sink;
  gpusim::SimContext sim;
  sim.materialize = false;
  sim.metrics = &reg;
  sim.trace = &sink;
  const std::size_t n = 512;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 64;
  satalgo::run_skss_lb(sim, a, b, n, n, p);

  // Metrics: the paper's look-back walks actually happened and were seen.
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* depth = snap.histogram("sim.lookback_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_FALSE(depth->empty());
  const std::uint64_t* retired = snap.counter("sim.blocks_retired");
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(*retired, (n / 64) * (n / 64));

  // Trace: write, re-read, parse.
  const std::string path = testing::TempDir() + "obs_golden_trace.json";
  ASSERT_TRUE(sink.write_file(path));
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is);
  std::ostringstream buf;
  buf << is.rdbuf();
  const Json root = JsonParser(buf.str()).parse();

  EXPECT_EQ(root.find("displayTimeUnit")->str, "ms");
  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->arr.empty());

  struct Span {
    double ts, dur;
    std::string cat;
  };
  std::map<std::pair<int, std::uint64_t>, std::vector<Span>> lanes;
  std::size_t blocks = 0, lookbacks = 0, waits = 0;
  bool saw_metadata = false;
  for (const Json& e : events->arr) {
    const std::string ph = e.find("ph")->str;
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::string cat = e.find("cat")->str;
    const Span s{e.find("ts")->num, e.find("dur")->num, cat};
    EXPECT_GE(s.ts, 0.0);
    EXPECT_GE(s.dur, 0.0);
    lanes[{static_cast<int>(e.find("pid")->num),
           static_cast<std::uint64_t>(e.find("tid")->num)}]
        .push_back(s);
    if (cat == "block") {
      ++blocks;
      EXPECT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("logical"), nullptr);
    } else if (cat == "lookback") {
      ++lookbacks;
      EXPECT_GE(e.find("args")->find("depth")->num, 1.0);
    } else if (cat == "wait") {
      ++waits;
    } else {
      FAIL() << "unexpected span category " << cat;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_EQ(blocks, (n / 64) * (n / 64));
  EXPECT_GT(lookbacks, 0u);
  EXPECT_EQ(lookbacks, depth->count);
  EXPECT_GT(waits, 0u);

  // Span nesting: every look-back and wait span lies inside a block span on
  // the same (pid, tid) lane. Timestamps are serialized at %.3f, so allow a
  // 2-ulp-of-print slack.
  constexpr double kEps = 0.002;
  for (const auto& [lane, spans] : lanes) {
    for (const Span& s : spans) {
      if (s.cat == "block") continue;
      bool nested = false;
      for (const Span& blk : spans) {
        if (blk.cat != "block") continue;
        if (blk.ts - kEps <= s.ts && s.ts + s.dur <= blk.ts + blk.dur + kEps) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << s.cat << " span at ts=" << s.ts << " on lane ("
                          << lane.first << "," << lane.second
                          << ") not inside any block span";
    }
  }
}

}  // namespace
