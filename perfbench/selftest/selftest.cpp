// Self-tests for the benchmark's own arithmetic (harness/bench.hpp): the tail
// rule, open-loop due-time accounting, metric-name validity, the
// denominator of every ratio, bucketed percentiles and span self time.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

using namespace perfbench;

/// Reference single-server FIFO system: request i is due
/// at due[i], the server starts it at max(due[i], previous finish) and needs
/// service[i]. Returns the finish times.
inline std::vector<double> fifo_finish_times(const std::vector<double>& due,
                                             const std::vector<double>& service) {
  std::vector<double> done(due.size());
  double free_at = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    free_at = std::max(free_at, due[i]) + service[i];
    done[i] = free_at;
  }
  return done;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(v, 100) == 100, "p100 is the max");
  expect(percentile({7}, 99) == 7, "any percentile of one sample");
  expect(median({3, 1, 2}) == 2, "median sorts");
  expect(throws([] { (void)percentile({}, 50); }), "percentile of nothing");
}

void test_tail_rule() {
  expect(samples_beyond(100, 90) == 10, "p90 of 100 has 10 beyond");
  expect(samples_beyond(99, 90) == 9, "p90 of 99 has 9 beyond");
  expect(tail_percentile(39) == 0, "39 samples support no tail");
  expect(tail_percentile(40) == 75, "40 samples: p75");
  expect(tail_percentile(50) == 80, "50 samples: p80");
  expect(tail_percentile(99) == 80, "99 samples: still p80");
  expect(tail_percentile(100) == 90, "100 samples: p90");
  expect(tail_percentile(999) == 95, "999 samples: p95");
  expect(tail_percentile(1000) == 99, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  // The workloads' fixed tails are legal at their minimum sample counts.
  expect(tail_percentile(100) >= 90, "host_bulk/paper_table3: p90 at 100");
  expect(tail_percentile(50) >= 80, "query_mixed: p80 at 50");
  expect(tail_percentile(1100) >= 99, "satd_mixed: p99 at 1100");
}

void test_open_loop_accounting() {
  // 100 requests due every 10 ms, each needing 1 ms of service; request 20
  // meets a 200 ms stall.
  std::vector<double> due, service;
  for (int i = 0; i < 100; ++i) {
    due.push_back(0.010 * i);
    service.push_back(i == 20 ? 0.200 : 0.001);
  }
  const std::vector<double> done = fifo_finish_times(due, service);
  const std::vector<double> lat = latencies_from_due(due, done);
  expect(near(lat[19], 0.001), "before the stall: service time only");
  expect(near(lat[20], 0.200), "the stalled request");
  // Request 21 was due 10 ms after 20 started, so it waited 190 ms.
  expect(near(lat[21], 0.191), "the stall is charged to the next request");
  int charged = 0;
  for (int i = 21; i < 100; ++i) charged += lat[i] > 0.0015 ? 1 : 0;
  expect(charged == 22, "every request due during the stall is charged (" +
                            std::to_string(charged) + ")");
  expect(lat[42] > 0.0015 && near(lat[43], 0.001), "the backlog drains");
  // Timing from the send instead would hide it: each request then looks
  // like its own service time.
  std::vector<double> sent(due.size());
  for (std::size_t i = 0; i < due.size(); ++i)
    sent[i] = done[i] - service[i];
  expect(near(latencies_from_due(sent, done)[21], 0.001),
         "send-time accounting hides the stall (what due-time fixes)");
  expect(throws([] { (void)latencies_from_due({1}, {}); }),
         "length mismatch is refused");
}

void test_names() {
  expect(valid_metric_name("latency_ms_p50"), "plain name");
  expect(valid_metric_name("host.lookback.fastpath_ratio"), "dotted name");
  expect(valid_metric_name("model.cell_ms.2r2w-optimal"), "digit, dash");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("model.cell_ms.(1+r)R1W"), "parentheses");
  expect(!valid_metric_name(std::string(65, 'a')), "65 letters");
  expect(valid_metric_name(std::string(64, 'a')), "64 letters");
  expect(valid_unit("ms") && valid_unit("1/s") && valid_unit("%") &&
             valid_unit("GB/s") && valid_unit("count"),
         "units in use");
  expect(!valid_unit("") && !valid_unit("m s") && !valid_unit(std::string(17, 'x')),
         "bad units");
  Report r;
  expect(throws([&] { r.metric("bad name", 1, "ms"); }), "report refuses bad name");
  r.metric("a", 1, "ms");
  expect(throws([&] { r.metric("a", 2, "ms"); }), "report refuses duplicates");
  expect(!r.correct(), "no attempt, not correct");
  r.attempt(2);
  expect(r.correct(), "attempted, nothing failed");
  r.fail("x");
  expect(!r.correct() && r.failed() == 1, "a failure makes it incorrect");
  expect(r.to_json() ==
             "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
             "\"metrics\": {\"a\": {\"value\": 1, \"unit\": \"ms\"}}}",
         "result line format");
}

void test_ratios() {
  expect(near(failed_ratio(1, 4), 0.25), "failed ÷ attempted");
  expect(throws([] { (void)failed_ratio(0, 0); }), "failed_ratio needs attempts");
  expect(near(overhead_pct(105.7, 100), 5.7), "overhead over the copy floor");
  expect(throws([] { (void)overhead_pct(1, 0); }), "overhead needs a floor");
  expect(near(batch_size_mean(72, 53), 72.0 / 53), "requests ÷ batches");
  expect(throws([] { (void)batch_size_mean(5, 0); }), "batch mean needs batches");
  expect(near(fastpath_ratio(3, 4), 0.75), "fastpath ÷ retired");
  expect(throws([] { (void)fastpath_ratio(0, 0); }), "fastpath needs tiles");
  expect(near(rejected_ratio(2, 8), 0.25), "rejected ÷ requests");
  expect(throws([] { (void)rejected_ratio(0, 0); }), "rejected needs requests");
  expect(near(bytes_ratio(60, 100), 0.6), "residual ÷ dense bytes");
  expect(throws([] { (void)bytes_ratio(1, 0); }), "bytes ratio needs dense");
  expect(near(per_second(10, 4), 2.5), "count ÷ seconds");
  expect(throws([] { (void)per_second(1, 0); }), "rate needs time");
}

void test_buckets() {
  // Log2 buckets as obs::Registry publishes them: [1,1], [2,3], [4,7] ...
  const std::vector<Bucket> b = {{2, 3, 10}, {4, 7, 10}};
  expect(near(bucket_percentile(b, 50), 3), "p50 at the first bucket's top");
  expect(near(bucket_percentile(b, 75), 5.5), "p75 halfway into the second");
  expect(near(bucket_percentile(b, 100), 7), "p100 at the top");
  expect(bucket_percentile({}, 50) == 0, "empty histogram");
}

void test_spans() {
  Tracer t(true);
  const auto root = t.begin_at("frame", 0);
  const auto a = t.begin_at("a", 1, root);
  t.end_at(a, 4);
  const auto b = t.begin_at("b", 5, root, 42);
  t.end_at(b, 9);
  t.end_at(root, 10);
  const std::vector<double> self = t.self_times_us();
  expect(near(self[0], 3), "root self = 10 − 3 − 4");
  expect(near(self[1], 3) && near(self[2], 4), "leaf self = duration");
  expect(t.self_us_of("b").size() == 1 && t.spans()[2].trace_id == 42,
         "spans keep their trace_id");
  Tracer off(false);
  expect(off.begin("x") == -1 && off.spans().empty(), "disabled records nothing");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_open_loop_accounting();
  test_names();
  test_ratios();
  test_buckets();
  test_spans();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
