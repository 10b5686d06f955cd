// query_mixed: a closed loop of video frames through the storage layer.
// Each 8K UHD frame (byte-valued i32) goes through sat::compute_sat_tiled,
// which writes the tiled base+residual store; the frame then answers
// kQueries seeded random sat::region_sum rectangles on that store and runs
// one satvision::box_filter pass over a region of interest, both of which
// read it. The store (~130 MiB) is larger than the last-level cache, so
// random corner lookups miss. A change that makes encoding cheaper by
// making decoding dearer, or the reverse, shows here and not on host_bulk.
//
// Operation = one frame. Latency = the frame's wall time; throughput =
// region queries per second at the median per-frame query time.
#include "roi.hpp"  // first: declares the Roi overload box_filter needs

#include <memory>

#include "core/api.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRows = 4320, kCols = 7680;  // 8K UHD
constexpr std::size_t kFrames = 2;                 // distinct frames, cycled
constexpr std::size_t kQueries = 20000;            // region sums per frame
constexpr std::size_t kRoi = 512;                  // box-filter ROI side
constexpr std::size_t kRadius = 4;                 // box-filter radius
constexpr std::size_t kFilterChecks = 2000;        // ROI pixels checked

struct Frame {
  sat::Matrix<std::int32_t> image;
  sat::Matrix<std::int64_t> oracle;  ///< dense i64 SAT (exact)
};

struct FrameOut {
  double ms = 0;
  double query_s = 0;
};

struct Query {
  std::vector<Frame> frames;
  std::unique_ptr<sathost::ThreadPool> pool;
};

sat::Options tiled_options(Query& q, obs::Registry* metrics) {
  sat::Options opt;
  opt.backend = sat::Backend::kCpu;
  opt.cpu_engine = sat::CpuEngine::kSkssLb;
  opt.pool = q.pool.get();
  opt.metrics = metrics;
  return opt;
}

std::vector<sat::Rect> random_rects(std::uint64_t seed, std::size_t n) {
  satutil::Rng rng(seed);
  std::vector<sat::Rect> out(n);
  for (sat::Rect& r : out) {
    std::size_t a = rng.next_below(kRows), b = rng.next_below(kRows);
    std::size_t c = rng.next_below(kCols), d = rng.next_below(kCols);
    if (a > b) std::swap(a, b);
    if (c > d) std::swap(c, d);
    r = sat::Rect{a, c, b + 1, d + 1};
  }
  return out;
}

/// One frame: compress, query, filter; then check everything it produced
/// (outside the timed part).
FrameOut one_frame(Query& q, std::uint64_t seed, std::size_t k,
                   obs::Registry* metrics, Tracer& tracer, Report& rep) {
  const Frame& f = q.frames[k % kFrames];
  const std::vector<sat::Rect> rects = random_rects(mix_seed(seed, 100 + k),
                                                    kQueries);
  satutil::Rng rng(mix_seed(seed, 200 + k));
  const std::size_t r0 = rng.next_below(kRows - kRoi);
  const std::size_t c0 = rng.next_below(kCols - kRoi);
  std::vector<std::int64_t> sums(kQueries);

  FrameOut out;
  const auto t0 = Clock::now();
  Scope frame(tracer, "frame");
  sat::TiledResult<std::int32_t> tiled;
  {
    Scope s(tracer, "core.compute_sat_tiled", frame.id());
    tiled = sat::compute_sat_tiled<std::int32_t>(f.image,
                                                 tiled_options(q, metrics));
  }
  const auto tq = Clock::now();
  {
    Scope s(tracer, "sat.region_sum", frame.id());
    for (std::size_t i = 0; i < kQueries; ++i)
      sums[i] = sat::region_sum(tiled.table, rects[i]);
  }
  out.query_s = seconds_between(tq, Clock::now());
  sat::Matrix<float> filtered;
  {
    Scope s(tracer, "vision.box_filter", frame.id());
    filtered = satvision::box_filter(Roi{&tiled.table, r0, c0, kRoi, kRoi},
                                     kRadius);
  }
  out.ms = 1e3 * seconds_between(t0, Clock::now());

  rep.attempt();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kQueries; ++i)
    bad += sums[i] != sat::region_sum(f.oracle, rects[i]) ? 1 : 0;
  for (std::size_t i = 0; i < kFilterChecks; ++i) {
    const std::size_t r = rng.next_below(kRoi), c = rng.next_below(kRoi);
    const sat::Rect w = satvision::window_at(r, c, kRadius, kRoi, kRoi);
    const double want = sat::region_mean(
        f.oracle, sat::Rect{w.r0 + r0, w.c0 + c0, w.r1 + r0, w.c1 + c0});
    bad += static_cast<float>(want) != filtered(r, c) ? 1 : 0;
  }
  if (bad != 0)
    rep.fail("frame " + std::to_string(k) + ": " + std::to_string(bad) +
             " region sums or filtered pixels off the i64 oracle");
  return out;
}

std::vector<FrameOut> loop(Query& q, std::uint64_t seed, double seconds,
                           std::size_t min_ops, obs::Registry* metrics,
                           Tracer& tracer, Report& rep) {
  std::vector<FrameOut> out;
  const auto t0 = Clock::now();
  for (std::size_t k = 0;
       seconds_between(t0, Clock::now()) < seconds || out.size() < min_ops;
       ++k)
    out.push_back(one_frame(q, seed, k, metrics, tracer, rep));
  return out;
}

std::vector<double> frame_ms(const std::vector<FrameOut>& v) {
  std::vector<double> ms;
  for (const FrameOut& f : v) ms.push_back(f.ms);
  return ms;
}

}  // namespace

void run_query_mixed(const RunConfig& cfg, Report& rep) {
  Query q;
  for (std::size_t k = 0; k < kFrames; ++k) {
    Frame f{sat::Matrix<std::int32_t>(kRows, kCols),
            sat::Matrix<std::int64_t>(kRows, kCols)};
    parallel_blocks(kRows / 16, [&](std::size_t b) {
      satutil::Rng rng(mix_seed(cfg.seed, 1000 * k + b));
      for (std::size_t i = b * 16 * kCols; i < (b + 1) * 16 * kCols; ++i)
        f.image.data()[i] = static_cast<std::int32_t>(rng.next_below(256));
    });
    for (std::size_t i = 0; i < kRows; ++i) {
      std::int64_t run = 0;
      for (std::size_t j = 0; j < kCols; ++j) {
        run += f.image(i, j);
        f.oracle(i, j) = run + (i > 0 ? f.oracle(i - 1, j) : 0);
      }
    }
    q.frames.push_back(std::move(f));
  }
  note("%zu frames of %zux%zu and their i64 oracles ready", kFrames, kRows,
       kCols);

  // Program-side set-up: the pool and one warm-up compression.
  EndToEnd e;
  e.setup_s = median_seconds(3, [&] {
    q.pool.reset();
    q.pool = std::make_unique<sathost::ThreadPool>(worker_count());
    (void)sat::compute_sat_tiled<std::int32_t>(q.frames[0].image,
                                               tiled_options(q, nullptr));
  });

  if (!cfg.trace) {
    Tracer off(false);
    const std::vector<FrameOut> frames =
        loop(q, cfg.seed, cfg.seconds, 20, nullptr, off, rep);
    std::vector<double> query_s;
    for (const FrameOut& f : frames) query_s.push_back(f.query_s);
    e.latency_ms = frame_ms(frames);
    e.peak_rss_mib = peak_rss_mib();
    e.throughput_per_s =
        per_second(static_cast<double>(kQueries), median(query_s));
    report_end_to_end(e, rep);
    return;
  }

  const double phase = 0.35 * cfg.seconds;
  Tracer off(false);
  const std::vector<double> plain =
      frame_ms(loop(q, cfg.seed, phase, 40, nullptr, off, rep));
  obs::Registry reg;
  Tracer tracer(true);
  const std::vector<double> traced =
      frame_ms(loop(q, cfg.seed, phase, 10, &reg, tracer, rep));
  write_trace(cfg, tracer);

  // References on frame 0: the same rectangles on the dense i64 table (the
  // gap to the tiled figure is the decompression cost), the store's size,
  // and a full decode.
  const Frame& f = q.frames[0];
  const sat::TiledResult<std::int32_t> tiled =
      sat::compute_sat_tiled<std::int32_t>(f.image, tiled_options(q, nullptr));
  const std::vector<sat::Rect> rects = random_rects(mix_seed(cfg.seed, 7),
                                                    kQueries);
  std::int64_t sink = 0;
  auto time_queries_ns = [&](auto&& table) {
    std::vector<double> ns;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      for (const sat::Rect& rect : rects) sink += sat::region_sum(table, rect);
      ns.push_back(1e9 * seconds_between(t0, Clock::now()) / kQueries);
    }
    return median(ns);
  };
  rep.metric("sat.region_sum_tiled_ns", time_queries_ns(tiled.table), "ns");
  rep.metric("sat.region_sum_dense_ns", time_queries_ns(f.oracle), "ns");
  if (sink == 42) note("(sink %lld)", static_cast<long long>(sink));
  sat::Matrix<std::int32_t> dense(kRows, kCols);
  rep.metric("sat.decode_into_ms", 1e3 * median_seconds(3, [&] {
               tiled.table.decode_into(dense.view());
             }),
             "ms");
  rep.metric("sat.storage.bytes_ratio",
             bytes_ratio(tiled.table.residual_bytes(),
                         tiled.table.dense_bytes()),
             "ratio");
  rep.metric("sat.storage.overflow_tiles",
             static_cast<double>(tiled.table.overflow_tiles()), "count");

  rep.metric("core.compute_sat_tiled_ms",
             mean(tracer.self_us_of("core.compute_sat_tiled")) / 1e3, "ms");
  rep.metric("vision.box_filter_ms",
             mean(tracer.self_us_of("vision.box_filter")) / 1e3, "ms");
  const obs::Snapshot snap = reg.snapshot();
  const std::uint64_t* fast = snap.counter("host.lookback.fastpath_tiles");
  const std::uint64_t* retired = snap.counter("host.lookback.tiles_retired");
  if (fast != nullptr && retired != nullptr)
    rep.metric("host.lookback.fastpath_ratio", fastpath_ratio(*fast, *retired),
               "ratio");
  const obs::HistogramSnapshot* wait =
      snap.histogram("host.lookback.flag_wait_us");
  if (wait != nullptr)
    rep.metric("host.lookback.flag_wait_us_per_op",
               static_cast<double>(wait->sum) /
                   static_cast<double>(traced.size()),
               "us");
  report_phases(plain, traced, rep);
}

}  // namespace perfbench
