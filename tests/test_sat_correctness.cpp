// Integration + property tests: every simulated SAT algorithm must produce
// the exact SAT (int64 workloads) of random matrices across sizes, tile
// widths, block sizes, shared-memory arrangements and dispatch orders, as
// checked against the sequential CPU oracle.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "gpusim/gpusim.hpp"
#include "host/sat_cpu.hpp"
#include "sat/algo_logstep.hpp"
#include "sat/registry.hpp"

namespace {

using gpusim::GlobalBuffer;
using gpusim::SimContext;
using sat::Matrix;
using satalgo::Algorithm;
using satalgo::SatParams;

template <class T>
Matrix<T> run_on_sim(SimContext& sim, Algorithm algo, const Matrix<T>& input,
                     const SatParams& params,
                     satalgo::RunResult* out_run = nullptr) {
  const std::size_t n = input.rows();
  GlobalBuffer<T> a(sim, n * n, "in");
  GlobalBuffer<T> b(sim, n * n, "out");
  a.upload(std::span(input.data(), input.size()));
  auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, params);
  if (out_run != nullptr) *out_run = std::move(run);
  Matrix<T> result(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) result(i, j) = b[i * n + j];
  return result;
}

template <class T>
Matrix<T> oracle(const Matrix<T>& input) {
  Matrix<T> ref(input.rows(), input.cols());
  sathost::sat_sequential<T>(input.view(), ref.view());
  return ref;
}

struct Case {
  Algorithm algo;
  std::size_t n;
  std::size_t tile_w;
  int threads;
  gpusim::SharedArrangement arrangement;
  gpusim::AssignmentOrder order;

  [[nodiscard]] std::string label() const {
    std::string name = satalgo::name_of(algo);
    for (char& c : name)
      if (!isalnum(static_cast<unsigned char>(c))) c = '_';
    return name + "_n" + std::to_string(n) + "_W" + std::to_string(tile_w) +
           "_t" + std::to_string(threads) + "_" +
           (arrangement == gpusim::SharedArrangement::Diagonal ? "diag"
                                                               : "rowmaj") +
           "_" + gpusim::to_string(order);
  }
};

class AllAlgorithms : public ::testing::TestWithParam<Case> {};

TEST_P(AllAlgorithms, MatchesOracleExactly) {
  const Case& c = GetParam();
  SimContext sim;
  // int32 keeps W=128 tiles within the 96 KiB shared-memory budget; values
  // are small enough that even the 512² total (≤ 255·512²) stays exact.
  const auto input =
      Matrix<std::int32_t>::random(c.n, c.n, 0xA11CE + c.n, 0, 255);
  SatParams p;
  p.tile_w = c.tile_w;
  p.threads_per_block = c.threads;
  p.arrangement = c.arrangement;
  p.order = c.order;
  p.seed = 1234;
  const auto got = run_on_sim(sim, c.algo, input, p);
  const auto expect = oracle(input);
  ASSERT_EQ(got, expect) << c.label();
}

std::vector<Case> correctness_cases() {
  using gpusim::AssignmentOrder;
  using gpusim::SharedArrangement;
  std::vector<Case> cases;
  const auto algos = satalgo::all_sat_algorithms();
  // Core sweep: every algorithm at several sizes and tile widths.
  for (Algorithm algo : algos) {
    for (std::size_t n : {128ul, 256ul, 512ul}) {
      for (std::size_t w : {32ul, 64ul, 128ul}) {
        if (w > n) continue;
        cases.push_back({algo, n, w, 1024, SharedArrangement::Diagonal,
                         AssignmentOrder::Natural});
      }
    }
  }
  // Arrangement and order robustness on the single-kernel algorithms.
  for (Algorithm algo : {Algorithm::kSkss, Algorithm::kSkssLb}) {
    for (auto order : {AssignmentOrder::Reversed, AssignmentOrder::Strided,
                       AssignmentOrder::Random}) {
      cases.push_back({algo, 256, 32, 256, SharedArrangement::Diagonal, order});
    }
    cases.push_back({algo, 256, 64, 512, SharedArrangement::RowMajor,
                     AssignmentOrder::Natural});
  }
  // Small thread counts (large m) and single-tile edge.
  cases.push_back({Algorithm::kSkssLb, 64, 32, 32,
                   SharedArrangement::Diagonal, AssignmentOrder::Natural});
  cases.push_back({Algorithm::kSkssLb, 32, 32, 1024,
                   SharedArrangement::Diagonal, AssignmentOrder::Natural});
  cases.push_back({Algorithm::k1R1W, 32, 32, 128, SharedArrangement::Diagonal,
                   AssignmentOrder::Natural});
  cases.push_back({Algorithm::k2R1W, 64, 64, 1024,
                   SharedArrangement::Diagonal, AssignmentOrder::Random});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllAlgorithms,
                         ::testing::ValuesIn(correctness_cases()),
                         [](const auto& param_info) { return param_info.param.label(); });

class HybridR : public ::testing::TestWithParam<double> {};

TEST_P(HybridR, AllRegionSplitsCorrect) {
  SimContext sim;
  const std::size_t n = 512;
  const auto input = Matrix<std::int64_t>::random(n, n, 77, 0, 100);
  SatParams p;
  p.tile_w = 32;  // 16×16 tiles: regions A/B/C all non-trivial
  p.hybrid_r = GetParam();
  const auto got = run_on_sim(sim, Algorithm::kHybrid, input, p);
  ASSERT_EQ(got, oracle(input));
}

INSTANTIATE_TEST_SUITE_P(RSweep, HybridR,
                         ::testing::Values(0.01, 0.0625, 0.25, 0.5, 0.81, 1.0));

TEST(SatProperties, FloatMatchesOracleWithinTolerance) {
  SimContext sim;
  const std::size_t n = 256;
  const auto input = Matrix<float>::random(n, n, 5, 0.0f, 1.0f);
  SatParams p;
  p.tile_w = 64;
  const auto got = run_on_sim(sim, Algorithm::kSkssLb, input, p);
  Matrix<float> ref(n, n);
  sathost::sat_sequential<float>(input.view(), ref.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double scale = std::max(1.0, std::abs(double(ref(i, j))));
      ASSERT_NEAR(got(i, j), ref(i, j), 1e-4 * scale) << i << "," << j;
    }
}

TEST(SatProperties, LinearityUnderScaling) {
  // SAT(2a) == 2·SAT(a) — exercised through the full simulated pipeline.
  SimContext sim;
  const std::size_t n = 128;
  auto a1 = Matrix<std::int64_t>::random(n, n, 9, 0, 50);
  Matrix<std::int64_t> a2(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a2(i, j) = 2 * a1(i, j);
  SatParams p;
  p.tile_w = 32;
  const auto s1 = run_on_sim(sim, Algorithm::kSkssLb, a1, p);
  const auto s2 = run_on_sim(sim, Algorithm::kSkssLb, a2, p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(s2(i, j), 2 * s1(i, j));
}

TEST(SatProperties, AllOnesGivesAreaFormula) {
  SimContext sim;
  const std::size_t n = 96;
  Matrix<std::int64_t> ones(n, n, 1);
  SatParams p;
  p.tile_w = 32;
  const auto s = run_on_sim(sim, Algorithm::kSkssLb, ones, p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(s(i, j), std::int64_t((i + 1) * (j + 1)));
}

TEST(SatCounters, SkssLbIsOneReadOneWritePerElementPlusLowerOrder) {
  SimContext sim;
  const std::size_t n = 1024, w = 64;
  GlobalBuffer<float> a(sim, n * n, "in");
  GlobalBuffer<float> b(sim, n * n, "out");
  SatParams p;
  p.tile_w = w;
  const auto run =
      satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p);
  const auto t = run.totals();
  // n² + O(n²/W): the aux term must stay well under n²·8/W.
  EXPECT_GE(t.element_reads, n * n);
  EXPECT_LE(t.element_reads, n * n + 8 * n * n / w);
  EXPECT_GE(t.element_writes, n * n);
  EXPECT_LE(t.element_writes, n * n + 8 * n * n / w);
  EXPECT_EQ(run.kernel_calls(), 1u);
}

TEST(SatCounters, CountOnlyModeMatchesMaterializedExactly) {
  // The 16K/32K cells of Table III run count-only; this asserts the two
  // modes agree bit-for-bit on every counter at a size where both fit.
  for (Algorithm algo : satalgo::all_sat_algorithms()) {
    SatParams p;
    p.tile_w = 32;
    const std::size_t n = 256;
    gpusim::Counters cm, cc;
    double tm = 0, tc = 0;
    {
      SimContext sim;
      GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
      auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
      cm = run.totals();
      tm = run.sum_critical_path_us();
    }
    {
      SimContext sim;
      sim.materialize = false;
      GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
      auto run = satalgo::run_algorithm(sim, algo, a, b, n, n, p);
      cc = run.totals();
      tc = run.sum_critical_path_us();
    }
    const char* name = satalgo::name_of(algo);
    EXPECT_EQ(cm.element_reads, cc.element_reads) << name;
    EXPECT_EQ(cm.element_writes, cc.element_writes) << name;
    EXPECT_EQ(cm.global_read_sectors, cc.global_read_sectors) << name;
    EXPECT_EQ(cm.global_write_sectors, cc.global_write_sectors) << name;
    EXPECT_EQ(cm.flag_writes, cc.flag_writes) << name;
    EXPECT_EQ(cm.shared_cycles, cc.shared_cycles) << name;
    EXPECT_EQ(cm.warp_alu_ops, cc.warp_alu_ops) << name;
    EXPECT_EQ(cm.syncthreads, cc.syncthreads) << name;
    EXPECT_DOUBLE_EQ(tm, tc) << name;
  }
}

TEST(SatFailureInjection, SkssLbDirectAssignmentDeadlocksOnReversedDispatch) {
  // Without the atomic work grab, tile = blockIdx: reversed dispatch admits
  // the bottom-right tile first on a tiny device and it spins on
  // predecessors that can never be admitted.
  SimContext sim(gpusim::DeviceConfig::tiny(1, 1));
  const std::size_t n = 128;
  GlobalBuffer<std::int64_t> a(sim, n * n, "in"), b(sim, n * n, "out");
  SatParams p;
  p.tile_w = 32;
  p.threads_per_block = 1024;
  p.skss_direct_assignment = true;
  p.order = gpusim::AssignmentOrder::Reversed;
  EXPECT_THROW(satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p),
               gpusim::DeadlockError);
}

TEST(SatFailureInjection, SkssLbAtomicGrabSurvivesReversedDispatch) {
  // Same adversarial dispatch, but with the paper's atomic self-assignment:
  // work is handed out in admission order, so it completes and is correct.
  SimContext sim(gpusim::DeviceConfig::tiny(1, 1));
  const std::size_t n = 128;
  const auto input = Matrix<std::int64_t>::random(n, n, 3, 0, 9);
  SatParams p;
  p.tile_w = 32;
  p.threads_per_block = 1024;
  p.order = gpusim::AssignmentOrder::Reversed;
  const auto got = run_on_sim(sim, Algorithm::kSkssLb, input, p);
  ASSERT_EQ(got, oracle(input));
}

TEST(LogStepBaseline, MatchesOracleOnSquaresAndRectangles) {
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{128, 128},
                            std::pair<std::size_t, std::size_t>{64, 200},
                            std::pair<std::size_t, std::size_t>{200, 64},
                            std::pair<std::size_t, std::size_t>{1, 100},
                            std::pair<std::size_t, std::size_t>{100, 1},
                            std::pair<std::size_t, std::size_t>{1, 1},
                            std::pair<std::size_t, std::size_t>{33, 77}}) {
    SimContext sim;
    const auto input = Matrix<std::int64_t>::random(rows, cols, 5, 0, 99);
    Matrix<std::int64_t> ref(rows, cols);
    sathost::sat_sequential<std::int64_t>(input.view(), ref.view());
    GlobalBuffer<std::int64_t> a(sim, rows * cols, "in"),
        b(sim, rows * cols, "out");
    a.upload(std::span(input.data(), input.size()));
    (void)satalgo::run_log_step(sim, a, b, rows, cols, {});
    for (std::size_t k = 0; k < rows * cols; ++k)
      ASSERT_EQ(b[k], ref(k / cols, k % cols)) << rows << "x" << cols;
  }
}

TEST(LogStepBaseline, TrafficIsThetaNLogN) {
  SimContext sim;
  sim.materialize = false;
  const std::size_t n = 1024;
  GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  const auto run = satalgo::run_log_step(sim, a, b, n, n, {});
  // 2·log2(n) = 20 doubling kernels (+ maybe a final copy).
  EXPECT_GE(run.kernel_calls(), 20u);
  EXPECT_LE(run.kernel_calls(), 21u);
  // Reads ≈ 2·n²·log2(n) minus the short first rows/cols of each step.
  const auto reads = run.totals().element_reads;
  EXPECT_GT(reads, 30ull * n * n);
  EXPECT_LT(reads, 42ull * n * n);
}

TEST(SatCounters, DuplicationReadsAndWritesExactlyOnce) {
  SimContext sim;
  const std::size_t n = 512;
  GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  const auto run =
      satalgo::run_algorithm(sim, Algorithm::kDuplicate, a, b, n, n, {});
  EXPECT_EQ(run.totals().element_reads, n * n);
  EXPECT_EQ(run.totals().element_writes, n * n);
}

}  // namespace
