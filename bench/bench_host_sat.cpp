// Real wall-clock microbenchmarks (google-benchmark) of the host SAT
// implementations and of the simulator itself. Not part of the paper's
// evaluation — this is the library's practical CPU story and a throughput
// check on the simulation substrate.
#include <benchmark/benchmark.h>

#include "core/matrix.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "sat/registry.hpp"

namespace {

void BM_HostSatSequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = sat::Matrix<float>::random(n, n, 1, 0.0f, 1.0f);
  sat::Matrix<float> b(n, n);
  for (auto _ : state) {
    sathost::sat_sequential<float>(a.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * n * n * 2 * 4);
}
BENCHMARK(BM_HostSatSequential)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HostSatTwoPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = sat::Matrix<float>::random(n, n, 1, 0.0f, 1.0f);
  sat::Matrix<float> b(n, n);
  for (auto _ : state) {
    sathost::sat_two_pass<float>(a.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * n * n * 2 * 4);
}
BENCHMARK(BM_HostSatTwoPass)->Arg(1024)->Arg(4096);

// The paper's single-pass look-back algorithm on host threads:
// range = {n, tile width W, workers}.
void BM_HostSatSkssLb(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  const auto workers = static_cast<std::size_t>(state.range(2));
  const auto a = sat::Matrix<float>::random(n, n, 1, 0.0f, 1.0f);
  sat::Matrix<float> b(n, n);
  sathost::ThreadPool pool(workers);
  sathost::SkssLbOptions opt;
  opt.tile_w = w;
  for (auto _ : state) {
    sathost::sat_skss_lb<float>(pool, a.view(), b.view(), opt);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * n * n * 2 * 4);
}
BENCHMARK(BM_HostSatSkssLb)
    ->Args({4096, 0, 1})  // W=0: auto tile width
    ->Args({4096, 0, 4})
    ->Args({1024, 128, 1})
    ->Args({1024, 128, 4})
    ->Args({4096, 64, 4})
    ->Args({4096, 128, 1})
    ->Args({4096, 128, 4})
    ->Args({4096, 256, 4})
    ->Args({8192, 128, 4});

// Simulator throughput: functional SKSS-LB elements simulated per second.
void BM_SimulatorSkssLb(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = sat::Matrix<float>::random(n, n, 2, 0.0f, 1.0f);
  for (auto _ : state) {
    gpusim::SimContext sim;
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    a.upload(input.storage());
    satalgo::SatParams p;
    p.tile_w = 64;
    auto run =
        satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, p);
    benchmark::DoNotOptimize(run.reports.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n);
}
BENCHMARK(BM_SimulatorSkssLb)->Arg(256)->Arg(1024);

// Count-only mode throughput (what bench_table3 uses for 16K/32K).
void BM_SimulatorCountOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
    satalgo::SatParams p;
    p.tile_w = 64;
    auto run =
        satalgo::run_algorithm(sim, satalgo::Algorithm::kSkssLb, a, b, n, p);
    benchmark::DoNotOptimize(run.reports.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n);
}
BENCHMARK(BM_SimulatorCountOnly)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
