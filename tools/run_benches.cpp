// Regenerates the repository's perf ledger:
//
//   ./build/tools/run_benches            # full run, writes to repo root
//   ./build/tools/run_benches --smoke    # small sizes, CI-friendly
//
// Emits BENCH_host_sat.json (host SAT implementations, Melem/s, ns/elem and
// overhead over a plain copy of the same bytes) and BENCH_sim.json
// (simulator count-only throughput on the Table III workload) into
// --out-dir. Dependency-free: uses bench/bench_json.hpp, not
// google-benchmark, so it builds even with SATLIB_BUILD_BENCHES=OFF.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/matrix.hpp"
#include "obs/registry.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_simd.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/sat_tiled.hpp"
#include "host/thread_pool.hpp"
#include "model/table3.hpp"
#include "tools/satd/client.hpp"
#include "tools/satd/server.hpp"
#include "util/argparse.hpp"

namespace {

using satbench::Record;

int iterations_for(std::size_t n, bool smoke) {
  // Smoke rows at n <= 1024 use the SAME repeat count as the committed
  // ledger: the normalized CI gate compares a smoke row's best-of against
  // the full ledger's best-of, and E[min of 3] > E[min of 9] — comparing
  // different repeat counts biases the fast rows' ratios by 10-30% on a
  // 1-core box, which is bigger than the 10% gate itself. Only the sizes
  // smoke never runs keep a reduced count.
  if (smoke) return n >= 4096 ? 3 : 9;
  // Best-of over enough repeats that a noisy neighbour on a shared box does
  // not end up in the committed ledger.
  return n >= 4096 ? 5 : 9;
}

template <class Fn>
Record time_host(const std::string& impl, std::size_t n, bool smoke, Fn&& fn,
                 obs::Registry* reg = nullptr) {
  Record r;
  r.name = "host_sat/" + impl + "/" + std::to_string(n);
  r.impl = impl;
  r.dtype = "f32";
  r.n = n;
  r.elems = n * n;
  r.iterations = iterations_for(n, smoke);
  r.wall_ms = satbench::time_best_ms(r.iterations, fn);
  if (reg != nullptr) r.metrics_json = reg->snapshot().to_json();
  std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(), r.wall_ms,
              r.melem_per_s());
  return r;
}

/// host_sat/copy/{n}: the duplication floor (the paper's yardstick) — the
/// n² 4-byte elements of `src` copied to `dst` in row blocks on the pool,
/// i.e. the one read and one write per element every engine row also pays.
Record time_copy(sathost::ThreadPool& pool, const float* src, float* dst,
                 std::size_t n, bool smoke) {
  const std::size_t blocks = std::min<std::size_t>(n, 64);
  const std::size_t rows_per_block = (n + blocks - 1) / blocks;
  return time_host("copy", n, smoke, [&] {
    pool.parallel_for(blocks, [&](std::size_t blk) {
      const std::size_t r0 = blk * rows_per_block;
      const std::size_t r1 = std::min(n, r0 + rows_per_block);
      if (r0 < r1)
        std::memcpy(dst + r0 * n, src + r0 * n, (r1 - r0) * n * sizeof(float));
    });
  });
}

/// Sets every row's overhead_vs_copy_pct from the copy row of its size.
/// All rows move 4-byte elements, so a row of k images (elems = k·n²) is
/// held against k copies.
void set_overhead_vs_copy(std::vector<Record>& rows) {
  std::map<std::size_t, double> copy_ms;
  for (const Record& r : rows)
    if (r.impl == "copy") copy_ms[r.n] = r.wall_ms;
  std::printf("overhead over host_sat/copy of the same size:\n");
  for (Record& r : rows) {
    const auto floor = copy_ms.find(r.n);
    if (r.impl == "copy" || floor == copy_ms.end()) continue;
    const double images =
        static_cast<double>(r.elems) / static_cast<double>(r.n * r.n);
    r.overhead_vs_copy_pct = 100.0 * (r.wall_ms / (images * floor->second) -
                                      1.0);
    std::printf("  %-28s %9.1f %%\n", r.name.c_str(), *r.overhead_vs_copy_pct);
  }
}

std::vector<Record> run_host_benches(bool smoke) {
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{1024, 4096};
  const std::size_t workers =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  sathost::ThreadPool pool(workers);

  std::vector<Record> out;
  for (std::size_t n : sizes) {
    const auto a = sat::Matrix<float>::random(n, n, 1, 0.0f, 1.0f);
    sat::Matrix<float> b(n, n);
    const auto src = a.view();
    const auto dst = b.view();
    out.push_back(time_host("sequential", n, smoke, [&] {
      sathost::sat_sequential<float>(src, dst);
    }));
    out.push_back(time_host("two_pass", n, smoke, [&] {
      sathost::sat_two_pass<float>(src, dst);
    }));
    {
      // Instrumented rows: the ledger carries each run's metrics snapshot
      // (accumulated over all timed iterations) next to its timing.
      obs::Registry reg;
      out.push_back(time_host(
          "simd", n, smoke,
          [&] { sathost::sat_simd<float>(src, dst, &reg); }, &reg));
    }
    // The paper's 1R1W-SKSS-LB on the host. The primary row runs the
    // engine's auto tile width (worker-count-scaled) and carries the
    // look-back metrics snapshot; the fixed-W sweep rows bracket the
    // tile-size tradeoff (per-tile dispatch+flag overhead and lost access
    // locality at small W vs. parallel slack at large W).
    {
      obs::Registry reg;
      sathost::SkssLbOptions opt;
      opt.metrics = &reg;
      out.push_back(time_host(
          "skss_lb", n, smoke,
          [&] { sathost::sat_skss_lb<float>(pool, src, dst, opt); }, &reg));
    }
    for (std::size_t w : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
      obs::Registry reg;
      sathost::SkssLbOptions opt;
      opt.tile_w = w;
      opt.metrics = &reg;
      out.push_back(time_host(
          "skss_lb_w" + std::to_string(w), n, smoke,
          [&] { sathost::sat_skss_lb<float>(pool, src, dst, opt); }, &reg));
    }
    if (!smoke && n >= 4096) {
      // Worker-count scaling rows (auto W): on a multicore bench machine
      // these document the 1 → 2 → 4 → 8 speedup; on a 1-core box they
      // document oversubscription overhead instead. Like every
      // multi-config head-to-head in this ledger the rows are INTERLEAVED
      // — one iteration of each worker count per round — so slow machine
      // drift over the run penalizes all counts equally instead of
      // whichever ran last.
      const std::size_t counts[] = {1, 2, 4, 8};
      std::vector<std::unique_ptr<sathost::ThreadPool>> tpools;
      for (std::size_t t : counts)
        tpools.push_back(std::make_unique<sathost::ThreadPool>(t));
      const int iters = iterations_for(n, smoke);
      double best[std::size(counts)] = {};
      for (int i = 0; i < iters; ++i)
        for (std::size_t k = 0; k < std::size(counts); ++k) {
          sathost::SkssLbOptions opt;
          const double ms = satbench::time_best_ms(1, [&] {
            sathost::sat_skss_lb<float>(*tpools[k], src, dst, opt);
          });
          if (i == 0 || ms < best[k]) best[k] = ms;
        }
      for (std::size_t k = 0; k < std::size(counts); ++k) {
        Record r;
        r.name = "host_sat/skss_lb_t" + std::to_string(counts[k]) + "/" +
                 std::to_string(n);
        r.impl = "skss_lb_t" + std::to_string(counts[k]);
        r.dtype = "f32";
        r.n = n;
        r.elems = n * n;
        r.iterations = iters;
        r.wall_ms = best[k];
        std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                    r.wall_ms, r.melem_per_s());
        out.push_back(r);
      }
    }
    // Storage-mode rows (docs/host_engine.md, "Storage modes").
    // skss_lb_resid16: the tiled base+residual store (sat_tiled) instead
    // of the dense table. Binary 0/1 i32 input with W=128
    // keeps every 128×128 tile-local SAT ≤ 16384, so all tiles take the
    // u16 residual plane — 2 output bytes per element instead of 4. The
    // row's metrics snapshot carries host.storage.{residual,dense}_bytes;
    // bench-smoke CI asserts the ≥40% byte reduction from them.
    {
      const auto ai = sat::Matrix<std::int32_t>::random(n, n, 1, 0, 1);
      const auto srci = ai.view();
      sat::TiledSat<std::int32_t> tiled(n, n, 128);
      obs::Registry reg;
      Record r = time_host(
          "skss_lb_resid16", n, smoke,
          [&] { sathost::sat_tiled<std::int32_t>(pool, srci, tiled, &reg); },
          &reg);
      r.dtype = "i32";
      out.push_back(r);
    }
    // kahan: the Storage::kKahanF32 producer (sat_kahan, the SIMD sweep
    // with Kahan-compensated column accumulation) — what the compensation
    // costs on top of the plain simd row.
    {
      obs::Registry reg;
      out.push_back(time_host(
          "kahan", n, smoke,
          [&] { sathost::sat_kahan<float>(src, dst, &reg); }, &reg));
    }
    // Batch-pipeline row: kBatch same-size images through one scheduler
    // call (sat_skss_lb_batch), so late tiles of image k overlap early
    // tiles of image k+1 instead of hitting a full barrier per image.
    // Throughput counts all images' elements. Bounded to the small sizes —
    // the row measures cross-image pipelining, which matters most when a
    // single image has too little parallel slack to fill the pool.
    if (n <= 1024) {
      constexpr std::size_t kBatch = 8;
      std::vector<sat::Matrix<float>> ins;
      std::vector<sat::Matrix<float>> outs;
      std::vector<satutil::Span2d<const float>> srcs;
      std::vector<satutil::Span2d<float>> dsts;
      for (std::size_t k = 0; k < kBatch; ++k) {
        ins.push_back(sat::Matrix<float>::random(n, n, 2 + k, 0.0f, 1.0f));
        outs.emplace_back(n, n);
      }
      for (std::size_t k = 0; k < kBatch; ++k) {
        srcs.push_back(ins[k].view());
        dsts.push_back(outs[k].view());
      }
      obs::Registry reg;
      pool.set_obs(&reg, nullptr);
      sathost::SkssLbOptions opt;
      opt.metrics = &reg;
      Record r;
      r.name = "host_sat/skss_lb_batch" + std::to_string(kBatch) + "/" +
               std::to_string(n);
      r.impl = "skss_lb_batch" + std::to_string(kBatch);
      r.dtype = "f32";
      r.n = n;
      r.elems = kBatch * n * n;
      r.iterations = iterations_for(n, smoke);
      r.wall_ms = satbench::time_best_ms(r.iterations, [&] {
        sathost::sat_skss_lb_batch<float>(pool, srcs, dsts, opt);
      });
      r.metrics_json = reg.snapshot().to_json();
      pool.set_obs(nullptr, nullptr);
      std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                  r.wall_ms, r.melem_per_s());
      out.push_back(r);
    }
    // Service-overhead row: the same 8-image batch as skss_lb_batch8, but
    // client → satd → batch engine over a loopback socket — framing, queue
    // admission, shape coalescing, result streaming. The delta against the
    // direct-call row is what the daemon costs (docs/satd.md). Warn-only
    // in ledger_diff like every host_sat/*/1024 row.
    if (n == 1024) {
      constexpr std::size_t kBatch = 8;
      satd::ServerOptions sopts;
      sopts.batch_max = kBatch;
      sopts.queue_cap = 2 * kBatch;
      satd::Server server(sopts);
      if (!server.start()) {
        std::fprintf(stderr, "  satd_loopback: server start failed, "
                             "skipping row\n");
      } else {
        satd::Client client;
        if (!client.connect(server.port())) {
          std::fprintf(stderr, "  satd_loopback: connect failed, "
                               "skipping row\n");
        } else {
          std::vector<std::vector<std::uint8_t>> payloads;
          for (std::size_t k = 0; k < kBatch; ++k) {
            const auto img =
                sat::Matrix<float>::random(n, n, 2 + k, 0.0f, 1.0f);
            payloads.push_back(satd::encode_matrix_payload(
                static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n),
                satd::Dtype::kF32, img.view().data()));
          }
          Record r;
          r.name = "host_sat/satd_loopback/" + std::to_string(n);
          r.impl = "satd_loopback";
          r.dtype = "f32";
          r.n = n;
          r.elems = kBatch * n * n;
          r.iterations = iterations_for(n, smoke);
          r.wall_ms = satbench::time_best_ms(r.iterations, [&] {
            // Pipelined burst: all requests in flight before any reply is
            // read, so the whole batch coalesces into one engine pass.
            for (std::size_t k = 0; k < kBatch; ++k) {
              if (!client.send(satd::Type::kCompute, k + 1, payloads[k]))
                std::abort();
            }
            for (std::size_t k = 0; k < kBatch; ++k) {
              satd::Frame reply;
              if (!client.recv(reply) || reply.type != satd::Type::kResult)
                std::abort();
            }
          });
          r.metrics_json = server.registry().snapshot().to_json();
          std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                      r.wall_ms, r.melem_per_s());
          out.push_back(r);
        }
      }
      server.stop();
    }
    // Timed last in its size, so the copy does not change the conditions of
    // the rows before it, the normalized gate's reference row among them.
    out.push_back(time_copy(pool, a.data(), b.data(), n, smoke));
  }
  if (!smoke) {
    // n=8192 head-to-head of the two leading engines only (a full sweep at
    // 256 MiB/matrix would double the ledger runtime for little signal).
    // The two are INTERLEAVED — one iteration of each, alternating — so a
    // machine that slows over the minutes-long ledger run (thermal /
    // noisy-neighbour drift) penalizes both rows equally instead of
    // whichever happened to run last.
    const std::size_t n = 8192;
    const auto a = sat::Matrix<float>::random(n, n, 1, 0.0f, 1.0f);
    sat::Matrix<float> b(n, n);
    const auto src = a.view();
    const auto dst = b.view();
    obs::Registry reg;
    sathost::SkssLbOptions opt;
    opt.metrics = &reg;
    const int iters = iterations_for(n, smoke);
    double best_simd = 0.0, best_skss = 0.0;
    for (int i = 0; i < iters; ++i) {
      const double t_simd =
          satbench::time_best_ms(1, [&] { sathost::sat_simd<float>(src, dst); });
      const double t_skss = satbench::time_best_ms(
          1, [&] { sathost::sat_skss_lb<float>(pool, src, dst, opt); });
      if (i == 0 || t_simd < best_simd) best_simd = t_simd;
      if (i == 0 || t_skss < best_skss) best_skss = t_skss;
    }
    for (auto [impl, ms, metrics] :
         {std::tuple<const char*, double, obs::Registry*>{"simd", best_simd,
                                                          nullptr},
          {"skss_lb", best_skss, &reg}}) {
      Record r;
      r.name = std::string("host_sat/") + impl + "/" + std::to_string(n);
      r.impl = impl;
      r.dtype = "f32";
      r.n = n;
      r.elems = n * n;
      r.iterations = iters;
      r.wall_ms = ms;
      if (metrics != nullptr) r.metrics_json = metrics->snapshot().to_json();
      std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                  r.wall_ms, r.melem_per_s());
      out.push_back(r);
    }
    // Storage head-to-head at 8192²: dense i32 SKSS-LB vs the tiled store
    // on the SAME binary 0/1 input, same W — the output representation
    // (4 bytes/element streamed vs 2) and its producer differ. W=256:
    // random binary tiles stay far below the u16 range in practice, and the
    // exact per-tile range check falls back to u32 if one ever does not
    // (host.storage.overflow_tiles counts it). Like the simd/skss_lb pair
    // above the two are INTERLEAVED so machine drift penalizes both
    // equally. ledger_diff gates the residual row; whether the byte saving
    // becomes a speedup depends on the machine being store-bandwidth-bound
    // (docs/host_engine.md, "Storage modes").
    {
      const auto ai = sat::Matrix<std::int32_t>::random(n, n, 1, 0, 1);
      sat::Matrix<std::int32_t> bi(n, n);
      const auto srci = ai.view();
      const auto dsti = bi.view();
      sat::TiledSat<std::int32_t> tiled(n, n, 256);
      obs::Registry rreg;
      sathost::SkssLbOptions dense_opt;
      dense_opt.tile_w = 256;
      double best_dense = 0.0, best_resid = 0.0;
      for (int i = 0; i < iters; ++i) {
        const double t_dense = satbench::time_best_ms(1, [&] {
          sathost::sat_skss_lb<std::int32_t>(pool, srci, dsti, dense_opt);
        });
        const double t_resid = satbench::time_best_ms(1, [&] {
          sathost::sat_tiled<std::int32_t>(pool, srci, tiled, &rreg);
        });
        if (i == 0 || t_dense < best_dense) best_dense = t_dense;
        if (i == 0 || t_resid < best_resid) best_resid = t_resid;
      }
      for (auto [impl, ms, metrics] :
           {std::tuple<const char*, double, obs::Registry*>{
                "skss_lb_i32", best_dense, nullptr},
            {"skss_lb_resid16", best_resid, &rreg}}) {
        Record r;
        r.name = std::string("host_sat/") + impl + "/" + std::to_string(n);
        r.impl = impl;
        r.dtype = "i32";
        r.n = n;
        r.elems = n * n;
        r.iterations = iters;
        r.wall_ms = ms;
        if (metrics != nullptr) r.metrics_json = metrics->snapshot().to_json();
        std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                    r.wall_ms, r.melem_per_s());
        out.push_back(r);
      }
    }
    out.push_back(time_copy(pool, a.data(), b.data(), n, smoke));
  }
  set_overhead_vs_copy(out);
  return out;
}

std::vector<Record> run_sim_benches(bool smoke) {
  // The bench_table3 hot path: count-only SKSS-LB cells (the sizes that
  // dominate a full Table III regeneration).
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1024}
            : std::vector<std::size_t>{4096, 16384};
  std::vector<Record> out;
  for (std::size_t n : sizes) {
    Record r;
    r.name = "sim_count_only/skss_lb/" + std::to_string(n);
    r.impl = "skss_lb";
    r.dtype = "f32";
    r.n = n;
    r.elems = n * n;
    r.iterations = smoke ? 3 : 5;
    obs::Registry reg;
    r.wall_ms = satbench::time_best_ms(r.iterations, [&] {
      (void)satmodel::run_cell(n, satalgo::Algorithm::kSkssLb, 64,
                               /*materialize=*/false, /*seed=*/1, &reg);
    });
    r.metrics_json = reg.snapshot().to_json();
    std::printf("  %-28s %10.3f ms  %9.1f Melem/s\n", r.name.c_str(),
                r.wall_ms, r.melem_per_s());
    out.push_back(r);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("run_benches",
                          "regenerate the BENCH_*.json perf ledger");
  args.add("out-dir", ".", "directory to write BENCH_*.json into")
      .add_flag("smoke", "small sizes only (CI smoke run)");
  if (!args.parse(argc, argv)) return 1;
  const bool smoke = args.get_flag("smoke");
  const std::string dir = args.get("out-dir");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; fopen reports

  std::printf("run_benches: git %s, simd backend %s, %s run\n",
              satbench::git_rev(), satsimd::backend_name(),
              smoke ? "smoke" : "full");

  std::printf("host SAT implementations:\n");
  const auto host = run_host_benches(smoke);
  std::printf("simulator (count-only Table III cells):\n");
  const auto sim = run_sim_benches(smoke);

  const std::string host_path = dir + "/BENCH_host_sat.json";
  const std::string sim_path = dir + "/BENCH_sim.json";
  if (!satbench::write_json(host_path, host, satsimd::backend_name(), smoke) ||
      !satbench::write_json(sim_path, sim, satsimd::backend_name(), smoke)) {
    std::fprintf(stderr, "run_benches: failed to write JSON to %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", host_path.c_str(), sim_path.c_str());
  return 0;
}
