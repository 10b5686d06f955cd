// Property tests on the traffic counters of every algorithm: the paper's
// optimality argument is stated in exactly these quantities, so they are
// pinned down across the parameter space.
#include <gtest/gtest.h>

#include "gpusim/gpusim.hpp"
#include "sat/registry.hpp"

namespace {

using satalgo::Algorithm;
using satalgo::SatParams;

struct CounterCase {
  Algorithm algo;
  std::size_t n;
  std::size_t w;
};

class CounterLaws : public ::testing::TestWithParam<CounterCase> {
 protected:
  satalgo::RunResult run() const {
    const auto& c = GetParam();
    gpusim::SimContext sim;
    sim.materialize = false;
    gpusim::GlobalBuffer<float> a(sim, c.n * c.n, "in"),
        b(sim, c.n * c.n, "out");
    SatParams p;
    p.tile_w = c.w;
    return satalgo::run_algorithm(sim, c.algo, a, b, c.n, c.n, p);
  }
};

TEST_P(CounterLaws, EveryElementReadAndWrittenAtLeastOnce) {
  // The paper's lower-bound argument: any SAT computation must read all n²
  // inputs and write all n² outputs.
  const auto t = run().totals();
  const auto n2 = GetParam().n * GetParam().n;
  EXPECT_GE(t.element_reads, n2);
  EXPECT_GE(t.element_writes, n2);
}

TEST_P(CounterLaws, SectorAccountingIsConsistent) {
  const auto t = run().totals();
  // DRAM traffic never exceeds issued traffic.
  EXPECT_LE(t.dram_read_sectors, t.global_read_sectors);
  EXPECT_LE(t.dram_write_sectors, t.global_write_sectors);
  // Issued sectors must cover the useful bytes.
  EXPECT_GE(t.global_read_sectors * 32, t.global_bytes_read);
  EXPECT_GE(t.global_write_sectors * 32, t.global_bytes_written);
  // And never exceed one sector per element (4-byte floats).
  EXPECT_LE(t.global_read_sectors, t.element_reads);
  EXPECT_LE(t.global_write_sectors, t.element_writes);
  // Bytes match elements exactly for float payloads.
  EXPECT_EQ(t.global_bytes_read, t.element_reads * 4);
  EXPECT_EQ(t.global_bytes_written, t.element_writes * 4);
}

TEST_P(CounterLaws, TrafficBoundsMatchTheAlgorithmClass) {
  const auto& c = GetParam();
  const auto t = run().totals();
  const double n2 = double(c.n) * double(c.n);
  const double reads = double(t.element_reads) / n2;
  const double writes = double(t.element_writes) / n2;
  switch (c.algo) {
    case Algorithm::k2R2W:
      EXPECT_DOUBLE_EQ(reads, 2.0);
      EXPECT_DOUBLE_EQ(writes, 2.0);
      break;
    case Algorithm::k2R2WOptimal:
      EXPECT_GE(reads, 2.0);
      EXPECT_LE(reads, 2.2);
      EXPECT_GE(writes, 2.0);
      EXPECT_LE(writes, 2.2);
      break;
    case Algorithm::k2R1W:
      EXPECT_GE(reads, 2.0);
      EXPECT_LE(reads, 2.0 + 16.0 / double(c.w));
      EXPECT_GE(writes, 1.0);
      EXPECT_LE(writes, 1.0 + 16.0 / double(c.w));
      break;
    case Algorithm::k1R1W:
    case Algorithm::kSkss:
    case Algorithm::kSkssLb:
      EXPECT_GE(reads, 1.0);
      EXPECT_LE(reads, 1.0 + 16.0 / double(c.w));
      EXPECT_GE(writes, 1.0);
      EXPECT_LE(writes, 1.0 + 16.0 / double(c.w));
      break;
    case Algorithm::kHybrid:
      EXPECT_GE(reads, 1.0);
      EXPECT_LE(reads, 2.0);  // (1+r) with r < 1
      EXPECT_GE(writes, 1.0);
      EXPECT_LE(writes, 1.0 + 16.0 / double(c.w));
      break;
    default:
      break;
  }
}

TEST_P(CounterLaws, KernelCallCountMatchesTableOne) {
  const auto& c = GetParam();
  const auto r = run();
  const std::size_t g = c.n / c.w;
  switch (c.algo) {
    case Algorithm::k2R2W:
    case Algorithm::k2R2WOptimal:
      EXPECT_EQ(r.kernel_calls(), 2u);
      break;
    case Algorithm::k2R1W:
      EXPECT_EQ(r.kernel_calls(), 3u);
      break;
    case Algorithm::k1R1W:
      EXPECT_EQ(r.kernel_calls(), 2 * g - 1);
      break;
    case Algorithm::kSkss:
    case Algorithm::kSkssLb:
      EXPECT_EQ(r.kernel_calls(), 1u);
      break;
    case Algorithm::kHybrid:
      EXPECT_GE(r.kernel_calls(), 5u);
      EXPECT_LE(r.kernel_calls(), 2 * g + 5);
      break;
    default:
      break;
  }
}

TEST_P(CounterLaws, SoftSyncTrafficOnlyWhereExpected) {
  const auto& c = GetParam();
  const auto t = run().totals();
  // Atomic work-grabbing: only the SKSS family. Status-flag traffic: the
  // SKSS family plus 2R2W-optimal, whose scan kernels use decoupled
  // look-back [10,12]. The multi-kernel algorithms synchronize at kernel
  // boundaries and must use neither.
  const bool grabs = c.algo == Algorithm::kSkss ||
                     c.algo == Algorithm::kSkssLb ||
                     c.algo == Algorithm::k2R2WOptimal;
  const bool flags = grabs;
  if (grabs) {
    EXPECT_GT(t.atomic_ops, 0u);
  } else {
    EXPECT_EQ(t.atomic_ops, 0u);
  }
  if (flags) {
    EXPECT_GT(t.flag_writes, 0u);
  } else {
    EXPECT_EQ(t.flag_writes, 0u);
  }
}

TEST_P(CounterLaws, SkssLbFlagBudgetMatchesSection4) {
  // §IV: two 8-bit integers per tile; R written ≤ 4 times, C ≤ 2 times.
  const auto& c = GetParam();
  if (c.algo != Algorithm::kSkssLb) GTEST_SKIP();
  const auto t = run().totals();
  const std::size_t tiles = (c.n / c.w) * (c.n / c.w);
  EXPECT_LE(t.flag_writes, 6 * tiles);
  EXPECT_GE(t.flag_writes, 4 * tiles);  // border tiles skip nothing: R gets 4
  EXPECT_EQ(t.atomic_ops, tiles);
}

std::vector<CounterCase> counter_cases() {
  std::vector<CounterCase> cases;
  for (auto algo : satalgo::all_sat_algorithms())
    for (std::size_t n : {256ul, 1024ul})
      for (std::size_t w : {32ul, 128ul}) cases.push_back({algo, n, w});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, CounterLaws,
                         ::testing::ValuesIn(counter_cases()),
                         [](const auto& param_info) {
                           std::string name = satalgo::name_of(param_info.param.algo);
                           for (char& ch : name)
                             if (!isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name + "_n" + std::to_string(param_info.param.n) +
                                  "_w" + std::to_string(param_info.param.w);
                         });

// --- Batched-charge conservation ------------------------------------------
//
// The count-only fast path replaces per-row accounting loops with one
// closed-form charge (BlockCtx::{read,write}_contiguous_rows and the strided
// _rows variants). The integer counters must be *bit-identical* to the old
// loop and the simulated clock equal to FP rounding.

void expect_counters_eq(const gpusim::Counters& a, const gpusim::Counters& b) {
  EXPECT_EQ(a.element_reads, b.element_reads);
  EXPECT_EQ(a.element_writes, b.element_writes);
  EXPECT_EQ(a.global_bytes_read, b.global_bytes_read);
  EXPECT_EQ(a.global_bytes_written, b.global_bytes_written);
  EXPECT_EQ(a.global_read_sectors, b.global_read_sectors);
  EXPECT_EQ(a.global_write_sectors, b.global_write_sectors);
  EXPECT_EQ(a.dram_read_sectors, b.dram_read_sectors);
  EXPECT_EQ(a.dram_write_sectors, b.dram_write_sectors);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.flag_reads, b.flag_reads);
  EXPECT_EQ(a.flag_polls, b.flag_polls);
  EXPECT_EQ(a.flag_writes, b.flag_writes);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.shared_conflict_cycles, b.shared_conflict_cycles);
  EXPECT_EQ(a.shfl_ops, b.shfl_ops);
  EXPECT_EQ(a.warp_alu_ops, b.warp_alu_ops);
  EXPECT_EQ(a.syncthreads, b.syncthreads);
}

TEST(BatchedCharges, RowsHelpersMatchPerRowLoopsExactly) {
  const gpusim::SimCostParams cost;
  // Rows × segment-length grid, including segments that straddle sector
  // boundaries (count not a multiple of 8 floats / 4 doubles per 32 B).
  for (std::size_t rows : {1ul, 2ul, 7ul, 32ul, 129ul}) {
    for (std::size_t count : {1ul, 3ul, 8ul, 17ul, 32ul, 100ul}) {
      for (std::size_t elem_bytes : {4ul, 8ul}) {
        for (bool l2_reuse : {false, true}) {
          gpusim::Counters batched_c, looped_c;
          gpusim::BlockCtx batched(0, 1024, cost, batched_c, 0.0);
          gpusim::BlockCtx looped(0, 1024, cost, looped_c, 0.0);

          batched.read_contiguous_rows(rows, count, elem_bytes);
          batched.write_contiguous_rows(rows, count, elem_bytes);
          batched.read_strided_walk_rows(rows, count, elem_bytes, l2_reuse);
          batched.write_strided_walk_rows(rows, count, elem_bytes, l2_reuse);
          for (std::size_t r = 0; r < rows; ++r)
            looped.read_contiguous(count, elem_bytes);
          for (std::size_t r = 0; r < rows; ++r)
            looped.write_contiguous(count, elem_bytes);
          for (std::size_t r = 0; r < rows; ++r)
            looped.read_strided_walk(count, elem_bytes, l2_reuse);
          for (std::size_t r = 0; r < rows; ++r)
            looped.write_strided_walk(count, elem_bytes, l2_reuse);

          SCOPED_TRACE("rows=" + std::to_string(rows) +
                       " count=" + std::to_string(count) +
                       " elem_bytes=" + std::to_string(elem_bytes) +
                       " l2_reuse=" + std::to_string(l2_reuse));
          expect_counters_eq(batched_c, looped_c);
          // The clock sums the same per-sector prices in a different
          // association order: equal up to accumulated FP rounding.
          EXPECT_NEAR(batched.now_us(), looped.now_us(),
                      1e-9 * looped.now_us() + 1e-12);
        }
      }
    }
  }
}

// Count-only runs take the batched fast path *and* skip aux materialization;
// materialized runs execute the arithmetic loops alongside the same charges.
// Both modes must agree on every integer counter, for every algorithm, size
// and tile width Table III sweeps.
class CountOnlyConservation : public ::testing::TestWithParam<CounterCase> {};

TEST_P(CountOnlyConservation, CountOnlyCountersMatchMaterializedBitExactly) {
  const auto& c = GetParam();
  gpusim::Counters totals[2];
  double model_us[2];
  for (int mode = 0; mode < 2; ++mode) {
    gpusim::SimContext sim;
    sim.materialize = (mode == 1);
    gpusim::GlobalBuffer<float> a(sim, c.n * c.n, "in"),
        b(sim, c.n * c.n, "out");
    SatParams p;
    p.tile_w = c.w;
    const auto run = satalgo::run_algorithm(sim, c.algo, a, b, c.n, c.n, p);
    totals[mode] = run.totals();
    model_us[mode] = 0.0;
    for (const auto& rep : run.reports) model_us[mode] += rep.critical_path_us;
  }
  expect_counters_eq(totals[0], totals[1]);
  EXPECT_NEAR(model_us[0], model_us[1], 1e-6 * model_us[1]);
}

std::vector<CounterCase> conservation_cases() {
  std::vector<CounterCase> cases;
  for (auto algo : satalgo::all_sat_algorithms())
    for (std::size_t n : {256ul, 1024ul})
      for (std::size_t w : {32ul, 64ul, 128ul}) cases.push_back({algo, n, w});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, CountOnlyConservation,
                         ::testing::ValuesIn(conservation_cases()),
                         [](const auto& param_info) {
                           std::string name = satalgo::name_of(param_info.param.algo);
                           for (char& ch : name)
                             if (!isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name + "_n" + std::to_string(param_info.param.n) +
                                  "_w" + std::to_string(param_info.param.w);
                         });

TEST(CounterLawsSpecial, DuplicationIsExactlyOneReadOneWrite) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 2048;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  const auto t = satalgo::run_algorithm(sim, Algorithm::kDuplicate, a, b, n, n)
                     .totals();
  EXPECT_EQ(t.element_reads, n * n);
  EXPECT_EQ(t.element_writes, n * n);
  EXPECT_EQ(t.global_read_sectors, n * n / 8);
  EXPECT_EQ(t.global_write_sectors, n * n / 8);
}

TEST(CounterLawsSpecial, LookbackDepthBoundedByGridDiagonal) {
  gpusim::SimContext sim;
  sim.materialize = false;
  const std::size_t n = 2048, w = 32;
  gpusim::GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  SatParams p;
  p.tile_w = w;
  const auto run =
      satalgo::run_algorithm(sim, Algorithm::kSkssLb, a, b, n, n, p);
  EXPECT_LE(run.max_lookback_depth(), n / w);
  EXPECT_GE(run.max_lookback_depth(), 1u);
}

}  // namespace
