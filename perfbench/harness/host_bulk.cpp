// host_bulk: the paper's large-n setting on the host. A closed loop with one
// caller and one image in flight; each image goes through
// sat::compute_sat_batch_into with the SKSS-LB engine on a caller-owned pool
// of nproc workers. Images alternate f32 and i32 and every array is over
// four times the last-level cache, so the look-back engine and DRAM
// bandwidth do all the work while satd, storage, vision and gpusim do none.
//
// Operation = one image. Latency = the call's wall time; throughput = SAT
// elements per second at the median call time.
#include <cmath>
#include <cstring>
#include <memory>
#include <new>

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// 12288² × 4 B = 576 MiB per array: 5.5× a 105 MiB LLC, while the whole
// working set (two inputs, one output, one f32 oracle) stays near 2.3 GiB.
constexpr std::size_t kSide = 12288;
constexpr std::size_t kElems = kSide * kSide;
constexpr std::size_t kRowBlock = 256;  // rows per harness work item
constexpr std::size_t kBlocks = kSide / kRowBlock;
// validate_sat's documented f32 bound: |got − exact| ≤ 1e-4 · max(1, |exact|).
constexpr float kF32RelTol = 1e-4f;

/// Page-aligned raw storage that both element types are viewed through
/// (one image in flight ⇒ one output buffer).
struct RawBuffer {
  struct Free {
    void operator()(void* p) const noexcept {
      ::operator delete(p, std::align_val_t{4096});
    }
  };
  std::unique_ptr<void, Free> mem;
  explicit RawBuffer(std::size_t bytes)
      : mem(::operator new(bytes, std::align_val_t{4096})) {}
  template <class T>
  T* as() const {
    return static_cast<T*>(mem.get());
  }
};

std::uint64_t digest_block(const std::int32_t* p, std::size_t n) {
  std::uint64_t h[4] = {1, 2, 3, 4};  // four chains: latency, not bandwidth
  for (std::size_t i = 0; i < n; ++i)
    h[i & 3] = (h[i & 3] ^ static_cast<std::uint32_t>(p[i])) * 0x100000001b3ull;
  return mix_seed(h[0] ^ (h[1] << 1), h[2] ^ (h[3] << 3));
}

/// Order-independent-of-scheduling digest of an i32 table.
std::uint64_t digest(const std::int32_t* p) {
  std::vector<std::uint64_t> part(kBlocks);
  parallel_blocks(kBlocks, [&](std::size_t b) {
    part[b] = digest_block(p + b * kRowBlock * kSide, kRowBlock * kSide);
  });
  std::uint64_t h = 0;
  for (std::uint64_t x : part) h = mix_seed(h, x);
  return h;
}

/// Elements of `got` outside the f32 bound around `want`.
std::size_t f32_mismatches(const float* got, const float* want) {
  std::vector<std::size_t> bad(kBlocks, 0);
  parallel_blocks(kBlocks, [&](std::size_t b) {
    const std::size_t off = b * kRowBlock * kSide;
    std::size_t n = 0;
    for (std::size_t i = off; i < off + kRowBlock * kSide; ++i)
      n += std::fabs(got[i] - want[i]) >
                   kF32RelTol * std::max(1.0f, std::fabs(want[i]))
               ? 1
               : 0;
    bad[b] = n;
  });
  std::size_t n = 0;
  for (std::size_t x : bad) n += x;
  return n;
}

template <class T>
void generate(sat::Matrix<T>& m, std::uint64_t seed, T lo, T hi) {
  parallel_blocks(kBlocks, [&](std::size_t b) {
    satutil::Rng rng(mix_seed(seed, b));
    T* p = m.data() + b * kRowBlock * kSide;
    for (std::size_t i = 0; i < kRowBlock * kSide; ++i)
      p[i] = rng.uniform<T>(lo, hi);
  });
}

struct Bulk {
  sat::Matrix<float> in_f;
  sat::Matrix<std::int32_t> in_i;
  sat::Matrix<float> oracle_f;
  std::uint64_t oracle_i = 0;
  std::unique_ptr<sathost::ThreadPool> pool;
  std::unique_ptr<RawBuffer> out;
};

/// One image through the public API; returns the call's wall time in ms.
template <class T>
double sat_call(Bulk& b, const sat::Matrix<T>& in, obs::Registry* metrics) {
  sat::Options opt;
  opt.backend = sat::Backend::kCpu;
  opt.cpu_engine = sat::CpuEngine::kSkssLb;
  opt.pool = b.pool.get();
  opt.metrics = metrics;
  const std::vector<satutil::Span2d<const T>> srcs = {in.view()};
  const std::vector<satutil::Span2d<T>> dsts = {
      satutil::Span2d<T>(b.out->as<T>(), kSide, kSide)};
  const auto t0 = Clock::now();
  (void)sat::compute_sat_batch_into<T>(srcs, dsts, opt);
  return 1e3 * seconds_between(t0, Clock::now());
}

/// Runs image k (even: f32, odd: i32), checks it, and returns its latency.
double one_image(Bulk& b, std::size_t k, obs::Registry* metrics, Report& rep) {
  rep.attempt();
  if (k % 2 == 0) {
    const double ms = sat_call<float>(b, b.in_f, metrics);
    const std::size_t bad = f32_mismatches(b.out->as<float>(), b.oracle_f.data());
    if (bad != 0)
      rep.fail("f32 image: " + std::to_string(bad) + " elements off oracle");
    return ms;
  }
  const double ms = sat_call<std::int32_t>(b, b.in_i, metrics);
  if (digest(b.out->as<std::int32_t>()) != b.oracle_i)
    rep.fail("i32 image differs from the sat_sequential oracle");
  return ms;
}

/// Closed loop for `seconds` (and at least `min_ops` images).
std::vector<double> loop(Bulk& b, double seconds, std::size_t min_ops,
                         obs::Registry* metrics, Tracer* tracer, Report& rep) {
  std::vector<double> lat;
  const auto t0 = Clock::now();
  for (std::size_t k = 0;
       seconds_between(t0, Clock::now()) < seconds || lat.size() < min_ops;
       ++k) {
    const double start = tracer != nullptr ? tracer->now_us() : 0;
    const double ms = one_image(b, k, metrics, rep);
    if (tracer != nullptr) {
      // The span covers the API call only, not the harness's check.
      const auto id = tracer->begin_at("core.compute_sat_batch_into", start);
      tracer->end_at(id, start + 1e3 * ms);
    }
    lat.push_back(ms);
  }
  return lat;
}

}  // namespace

void run_host_bulk(const RunConfig& cfg, Report& rep) {
  Bulk b;
  b.in_f = sat::Matrix<float>(kSide, kSide);
  b.in_i = sat::Matrix<std::int32_t>(kSide, kSide);
  generate<float>(b.in_f, mix_seed(cfg.seed, 1), 0.0f, 1.0f);
  // Values below 8 keep every i32 prefix sum under 2^31 at this size.
  generate<std::int32_t>(b.in_i, mix_seed(cfg.seed, 2), 0, 8);
  {
    sat::Matrix<std::int32_t> ref(kSide, kSide);
    sathost::sat_sequential<std::int32_t>(b.in_i.view(), ref.view());
    b.oracle_i = digest(ref.data());
  }
  b.oracle_f = sat::Matrix<float>(kSide, kSide);
  sathost::sat_sequential<float>(b.in_f.view(), b.oracle_f.view());
  note("inputs and oracles ready (%zu^2, f32 + i32)", kSide);

  // Program-side set-up: the pool, the first-touched output buffer, and one
  // warm-up call (the engine's lazily built state).
  EndToEnd e;
  e.setup_s = median_seconds(3, [&] {
    b.pool.reset();
    b.out.reset();
    b.pool = std::make_unique<sathost::ThreadPool>(worker_count());
    b.out = std::make_unique<RawBuffer>(kElems * 4);
    std::memset(b.out->mem.get(), 0, kElems * 4);
    (void)sat_call<float>(b, b.in_f, nullptr);
  });

  if (!cfg.trace) {
    e.latency_ms = loop(b, cfg.seconds, 20, nullptr, nullptr, rep);
    e.peak_rss_mib = peak_rss_mib();
    // At the median image time, not the mean: one slow image (a noisy
    // neighbour) must not move the run's figure.
    e.throughput_per_s =
        per_second(static_cast<double>(kElems), median(e.latency_ms) / 1e3);
    report_end_to_end(e, rep);
    return;
  }

  // Traced run: an untraced phase and a traced phase of equal length, then
  // the reference points (copy floor, single-thread baseline).
  const double phase = 0.35 * cfg.seconds;
  const std::vector<double> plain = loop(b, phase, 40, nullptr, nullptr, rep);
  obs::Registry reg;
  Tracer tracer(true);
  const std::vector<double> traced = loop(b, phase, 20, &reg, &tracer, rep);
  write_trace(cfg, tracer);

  std::vector<double> copy_ms;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    b.pool->parallel_for(kBlocks, [&](std::size_t blk) {
      const std::size_t off = blk * kRowBlock * kSide;
      std::memcpy(b.out->as<float>() + off, b.in_f.data() + off,
                  kRowBlock * kSide * sizeof(float));
    });
    copy_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  std::vector<double> seq_ms;
  for (int r = 0; r < 2; ++r) {
    const auto t0 = Clock::now();
    sathost::sat_sequential<float>(
        b.in_f.view(), satutil::Span2d<float>(b.out->as<float>(), kSide, kSide));
    seq_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }

  const double sat_ms = median(plain);
  const obs::Snapshot snap = reg.snapshot();
  const auto counter = [&](const char* n) -> std::uint64_t {
    const std::uint64_t* c = snap.counter(n);
    return c != nullptr ? *c : 0;
  };
  rep.metric("core.batch_into_ms", mean(tracer.self_us_of(
                                       "core.compute_sat_batch_into")) / 1e3,
             "ms");
  rep.metric("host.copy_ms", median(copy_ms), "ms");
  rep.metric("host.overhead_vs_copy_pct", overhead_pct(sat_ms, median(copy_ms)),
             "%");
  rep.metric("host.sequential_ms", median(seq_ms), "ms");
  rep.metric("host.speedup_vs_sequential",
             ratio(median(seq_ms), sat_ms, "speedup (sat_ms)"), "x");
  // Computed, not measured: one 4-byte read and one 4-byte write per element.
  rep.metric("host.computed_gbps",
             per_second(2.0 * 4.0 * kElems, sat_ms / 1e3) / 1e9, "GB/s");
  rep.metric("host.lookback.fastpath_ratio",
             fastpath_ratio(counter("host.lookback.fastpath_tiles"),
                            counter("host.lookback.tiles_retired")),
             "ratio");
  const obs::HistogramSnapshot* wait =
      snap.histogram("host.lookback.flag_wait_us");
  rep.metric("host.lookback.flag_wait_us_per_op",
             (wait != nullptr ? static_cast<double>(wait->sum) : 0.0) /
                 static_cast<double>(traced.size()),
             "us");
  report_phases(plain, traced, rep);
  // The same engine behind the service: the satd layer is measured here.
  measure_satd_layer(cfg, rep);
}

}  // namespace perfbench
