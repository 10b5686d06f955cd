// Interleaving explorer for the host 1R1W-SKSS-LB engine.
//
// The PR 1 ProtocolChecker verifies the *simulated* algorithm against its
// happens-before spec; this harness does the analogous job for the real
// host threads. Every protocol step of sat_skss_lb — tile claim, flag
// observe, flag publish — funnels through sathost::testhook::g_sched_hook
// (src/host/lookback.hpp), so the test can park every worker at its next
// step and decide which one advances. Execution is fully serialized: one
// worker runs between two scheduling points at a time, so a run's behavior
// is a pure function of the scheduler's decision sequence, and enumerating
// decision sequences enumerates interleavings.
//
// Two enumeration modes (docs/static_analysis.md has the schedule model):
//   - bounded-exhaustive DFS: all schedules that differ in the first
//     `branch_cap` decisions with >1 enabled worker (the tail follows the
//     first enabled worker deterministically);
//   - seeded random walks over bigger grids, worker counts > tiles, and
//     ragged tile edges.
//
// Every schedule must produce bit-exact SAT output (integer elements, so
// association order cannot hide anything) and must terminate. Deadlock
// detection is *precise*, not heuristic: workers parked in a flag wait are
// blocked iff the shadow flag value (maintained from granted publishes)
// is still below what they wait for; flags only change through gated
// publishes, so "every live worker blocked" is exactly "no schedule can
// make progress". The engine's sigma argument says this never happens; the
// harness proves the detector itself works by seeding a cross-wait
// deadlock and watching it fire.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "host/lookback.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_skss_lb.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sched_explorer.hpp"
#include "util/span2d.hpp"

namespace {

using sat::Matrix;
using sched::DfsDriver;
using sched::ScheduleExplorer;

// ScheduleExplorer and DfsDriver live in sched_explorer.hpp (shared with
// test_satmc_replay.cpp, which replays satmc counterexample schedules
// through the same hook layer).

// ── Cross-test coverage aggregation ───────────────────────────────────
// gtest runs this binary's tests sequentially in one process; the final
// Coverage test asserts over everything the earlier tests explored.

std::unordered_set<std::string>& signatures() {
  static std::unordered_set<std::string> s;
  return s;
}
std::uint64_t& fastpath_tiles_total() {
  static std::uint64_t v = 0;
  return v;
}
std::uint64_t& slowpath_tiles_total() {
  static std::uint64_t v = 0;
  return v;
}
std::uint64_t& overlap_tiles_total() {
  static std::uint64_t v = 0;
  return v;
}

void accumulate_counters(const obs::Registry& reg) {
  const obs::Snapshot snap = reg.snapshot();
  const std::uint64_t* fast = snap.counter("host.lookback.fastpath_tiles");
  const std::uint64_t* tiles = snap.counter("host.lookback.tiles_retired");
  if (fast != nullptr && tiles != nullptr) {
    fastpath_tiles_total() += *fast;
    slowpath_tiles_total() += *tiles - *fast;
  }
  const std::uint64_t* overlap = snap.counter("host.lookback.overlap_tiles");
  if (overlap != nullptr) overlap_tiles_total() += *overlap;
}

struct GridConfig {
  const char* tag;
  std::size_t rows, cols, tile_w, workers;
};

/// One fully scheduled engine run: returns false on any failure (the
/// caller stops its schedule loop to avoid an avalanche of reports).
bool run_scheduled(sathost::ThreadPool& pool, const GridConfig& cfg,
                   const Matrix<std::int64_t>& input,
                   const Matrix<std::int64_t>& oracle,
                   const ScheduleExplorer::DecideFn& decide,
                   ScheduleExplorer::Outcome* outcome = nullptr) {
  Matrix<std::int64_t> got(cfg.rows, cfg.cols);
  obs::Registry reg;
  ScheduleExplorer explorer(cfg.workers);
  sathost::testhook::g_sched_hook = &explorer;
  std::thread engine([&] {
    sathost::SkssLbOptions opt;
    opt.tile_w = cfg.tile_w;
    opt.workers = cfg.workers;
    opt.metrics = &reg;
    sathost::sat_skss_lb<std::int64_t>(pool, input.view(), got.view(), opt);
  });
  const ScheduleExplorer::Outcome out = explorer.drive(decide);
  engine.join();
  sathost::testhook::g_sched_hook = nullptr;
  if (outcome != nullptr) *outcome = out;

  EXPECT_FALSE(out.deadlock) << cfg.tag << ": schedule deadlocked";
  EXPECT_FALSE(out.timeout) << cfg.tag << ": scheduler timed out";
  if (out.deadlock || out.timeout) return false;

  for (std::size_t i = 0; i < cfg.rows; ++i) {
    for (std::size_t j = 0; j < cfg.cols; ++j) {
      if (got(i, j) != oracle(i, j)) {
        ADD_FAILURE() << cfg.tag << ": SAT mismatch at (" << i << "," << j
                      << "): " << got(i, j) << " != " << oracle(i, j);
        return false;
      }
    }
  }

  std::string sig(cfg.tag);
  sig.push_back('#');
  for (std::size_t i = 0; i < out.choices.size(); ++i) {
    sig.push_back(static_cast<char>('0' + out.choices[i]));
    sig.push_back(static_cast<char>('0' + out.alts[i]));
  }
  signatures().insert(std::move(sig));

  accumulate_counters(reg);
  return true;
}

/// The batch analogue of run_scheduled: `nimages` same-shaped inputs
/// through one sat_skss_lb_batch call, every image checked bit-exact
/// against its own oracle.
bool run_scheduled_batch(sathost::ThreadPool& pool, const GridConfig& cfg,
                         const std::vector<Matrix<std::int64_t>>& inputs,
                         const std::vector<Matrix<std::int64_t>>& oracles,
                         const ScheduleExplorer::DecideFn& decide) {
  std::vector<Matrix<std::int64_t>> got;
  std::vector<satutil::Span2d<const std::int64_t>> srcs;
  std::vector<satutil::Span2d<std::int64_t>> dsts;
  got.reserve(inputs.size());
  for (const auto& in : inputs) {
    got.emplace_back(cfg.rows, cfg.cols);
    srcs.push_back(in.view());
    dsts.push_back(got.back().view());
  }
  obs::Registry reg;
  ScheduleExplorer explorer(cfg.workers);
  sathost::testhook::g_sched_hook = &explorer;
  std::thread engine([&] {
    sathost::SkssLbOptions opt;
    opt.tile_w = cfg.tile_w;
    opt.workers = cfg.workers;
    opt.metrics = &reg;
    sathost::sat_skss_lb_batch<std::int64_t>(pool, srcs, dsts, opt);
  });
  const ScheduleExplorer::Outcome out = explorer.drive(decide);
  engine.join();
  sathost::testhook::g_sched_hook = nullptr;

  EXPECT_FALSE(out.deadlock) << cfg.tag << ": schedule deadlocked";
  EXPECT_FALSE(out.timeout) << cfg.tag << ": scheduler timed out";
  if (out.deadlock || out.timeout) return false;

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (std::size_t i = 0; i < cfg.rows; ++i) {
      for (std::size_t j = 0; j < cfg.cols; ++j) {
        if (got[k](i, j) != oracles[k](i, j)) {
          ADD_FAILURE() << cfg.tag << ": image " << k << " SAT mismatch at ("
                        << i << "," << j << "): " << got[k](i, j)
                        << " != " << oracles[k](i, j);
          return false;
        }
      }
    }
  }

  std::string sig(cfg.tag);
  sig.push_back('#');
  for (std::size_t i = 0; i < out.choices.size(); ++i) {
    sig.push_back(static_cast<char>('0' + out.choices[i]));
    sig.push_back(static_cast<char>('0' + out.alts[i]));
  }
  signatures().insert(std::move(sig));

  accumulate_counters(reg);
  return true;
}

Matrix<std::int64_t> make_input(const GridConfig& cfg, std::uint64_t seed) {
  return Matrix<std::int64_t>::random(cfg.rows, cfg.cols, seed, 0, 9);
}

Matrix<std::int64_t> make_oracle(const Matrix<std::int64_t>& input) {
  Matrix<std::int64_t> ref(input.rows(), input.cols());
  sathost::sat_sequential<std::int64_t>(input.view(), ref.view());
  return ref;
}

// ── The harness proves its own detector ───────────────────────────────

TEST(InterleaveHarness, DetectsSeededCrossWaitDeadlock) {
  sathost::StatusFlags a(1);
  sathost::StatusFlags b(1);
  const sathost::LookbackObs obs;  // all counters off
  ScheduleExplorer explorer(2);
  sathost::testhook::g_sched_hook = &explorer;

  // Classic cross-wait: each thread waits for the other's publish. No
  // schedule can make progress — the precise detector must fire.
  std::thread t0([&] {
    b.wait_at_least(0, 1, obs);
    a.publish(0, 2);
    sathost::testhook::g_sched_hook->on_exit();
  });
  std::thread t1([&] {
    a.wait_at_least(0, 1, obs);
    b.publish(0, 1);
    sathost::testhook::g_sched_hook->on_exit();
  });

  std::mt19937 rng(7);
  const ScheduleExplorer::Outcome out = explorer.drive(
      [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); },
      // Break the seeded deadlock so the test can finish: satisfying t1's
      // wait lets the chain t1 → b → t0 unwind.
      [&] { explorer.driver_publish(a, 0, 1); });
  t0.join();
  t1.join();
  sathost::testhook::g_sched_hook = nullptr;

  EXPECT_TRUE(out.deadlock)
      << "the precise deadlock detector missed a seeded cross-wait";
  EXPECT_FALSE(out.timeout);
}

// ── Engine exploration ────────────────────────────────────────────────

TEST(Interleave, BoundedExhaustiveTwoWorkers2x2) {
  const GridConfig cfg{"dfs-2x2w2", 8, 8, 4, 2};  // 2×2 tiles
  const Matrix<std::int64_t> input = make_input(cfg, 101);
  const Matrix<std::int64_t> oracle = make_oracle(input);
  sathost::ThreadPool pool(cfg.workers);

  DfsDriver dfs(/*branch_cap=*/10);
  std::size_t runs = 0;
  const std::size_t max_runs = 1400;  // tree budget backstop
  do {
    if (!run_scheduled(pool, cfg, input, oracle,
                       [&](std::size_t n) { return dfs.decide(n); }))
      break;
    ++runs;
  } while (runs < max_runs && dfs.advance());
  RecordProperty("schedules", static_cast<int>(runs));
  EXPECT_GE(runs, 64u) << "the bounded DFS tree collapsed — did the hook "
                          "layer stop exposing branch points?";
}

void random_schedule_sweep(const GridConfig& cfg, std::size_t n_seeds) {
  const Matrix<std::int64_t> input = make_input(cfg, cfg.rows * 1000 + 17);
  const Matrix<std::int64_t> oracle = make_oracle(input);
  sathost::ThreadPool pool(cfg.workers);
  for (std::size_t seed = 0; seed < n_seeds; ++seed) {
    std::mt19937 rng(static_cast<std::uint32_t>(seed * 2654435761u + 12345u));
    if (!run_scheduled(pool, cfg, input, oracle, [&](std::size_t n) {
          return static_cast<std::size_t>(rng() % n);
        }))
      break;
  }
}

TEST(Interleave, RandomSchedules3x2TwoWorkers) {
  random_schedule_sweep({"rnd-3x2w2", 12, 8, 4, 2}, 220);
}

TEST(Interleave, RandomSchedules3x3ThreeWorkersRagged) {
  // 10×11 with W=4 → 3×3 tiles with ragged right/bottom edges.
  random_schedule_sweep({"rnd-3x3w3", 10, 11, 4, 3}, 220);
}

TEST(Interleave, RandomSchedulesWorkersExceedTiles) {
  // 6 workers racing for 4 tiles: the surplus claims must drain and exit
  // on every schedule.
  random_schedule_sweep({"rnd-2x2w6", 8, 8, 4, 6}, 160);
}

TEST(Interleave, RandomSchedules4x4FourWorkers) {
  // 4×4 tiles, 4 workers: the largest grid satmc checks exhaustively, here
  // on the real engine. Up to four tiles are in flight, so random
  // schedules reach deep row, column and diagonal walks.
  random_schedule_sweep({"rnd-4x4w4", 16, 16, 4, 4}, 220);
}

TEST(Interleave, RandomSchedulesBatchPipelineBoundary) {
  // Two 2×2-tile images through ONE claim counter: global serials
  // [0,4) are image 0, [4,8) image 1. Schedules freely reorder claims
  // across the image boundary, so tiles of image 1 start while
  // image 0's terminal tile is still unpublished — the pipeline overlap
  // the batch entry exists for. Every image must stay bit-exact on every
  // schedule (images share no data, only the claim layer).
  const GridConfig cfg{"rnd-batch2-2x2w2", 8, 8, 4, 2};
  std::vector<Matrix<std::int64_t>> inputs;
  std::vector<Matrix<std::int64_t>> oracles;
  for (std::uint64_t k = 0; k < 2; ++k) {
    inputs.push_back(make_input(cfg, 7000 + k));
    oracles.push_back(make_oracle(inputs.back()));
  }
  sathost::ThreadPool pool(cfg.workers);
  const std::uint64_t overlap_before = overlap_tiles_total();
  for (std::size_t seed = 0; seed < 180; ++seed) {
    std::mt19937 rng(static_cast<std::uint32_t>(seed * 2654435761u + 97u));
    if (!run_scheduled_batch(pool, cfg, inputs, oracles, [&](std::size_t n) {
          return static_cast<std::size_t>(rng() % n);
        }))
      break;
  }
  EXPECT_GT(overlap_tiles_total(), overlap_before)
      << "no schedule pipelined an image-1 tile past the image boundary — "
         "is the batch path serializing on image completion?";
}

TEST(Interleave, SingleWorkerIsDeterministic) {
  // One worker has exactly one schedule (every step has one enabled
  // worker) — the degenerate base case of the model.
  const GridConfig cfg{"rnd-2x2w1", 8, 8, 4, 1};
  const Matrix<std::int64_t> input = make_input(cfg, 5);
  const Matrix<std::int64_t> oracle = make_oracle(input);
  sathost::ThreadPool pool(cfg.workers);
  ScheduleExplorer::Outcome out;
  ASSERT_TRUE(run_scheduled(
      pool, cfg, input, oracle,
      [](std::size_t) -> std::size_t { return 0; }, &out));
  for (const std::uint8_t alts : out.alts) EXPECT_EQ(alts, 1u);
}

TEST(Interleave, Coverage) {
  // The acceptance bar: ≥ 1000 distinct schedules across the small-grid
  // matrix, every one bit-exact and deadlock-free (each run already
  // asserted that), with both tile paths genuinely exercised.
  RecordProperty("distinct_schedules",
                 static_cast<int>(signatures().size()));
  EXPECT_GE(signatures().size(), 1000u);
  EXPECT_GT(fastpath_tiles_total(), 0u);
  EXPECT_GT(slowpath_tiles_total(), 0u)
      << "no schedule forced a look-back (slow-path) tile — the explorer "
         "is not actually perturbing claim/publish order";
}

}  // namespace
