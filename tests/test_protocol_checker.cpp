// Tests for the soft-sync protocol verifier: clean verification of every
// registry algorithm, non-perturbation, and fault-injection detection of
// seeded races, σ-violating schedules, stuck tiles, and corrupted cells.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.hpp"
#include "gpusim/gpusim.hpp"
#include "repro/repro.hpp"
#include "sat/registry.hpp"

namespace {

using namespace gpusim;

/// Runs `fn`, expecting a ProtocolError whose message contains `needle`.
template <class Fn>
std::string expect_protocol_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "diagnostic '" << what << "' does not mention '" << needle << "'";
    return what;
  }
  ADD_FAILURE() << "expected ProtocolError mentioning '" << needle << "'";
  return {};
}

satalgo::RunResult run_checked(satalgo::Algorithm algo, std::size_t n,
                               std::size_t w, ProtocolChecker& checker,
                               const satalgo::SatParams& base = {}) {
  SimContext sim;
  sim.materialize = false;  // protocol + counters only: fast
  sim.checker = &checker;
  GlobalBuffer<float> a(sim, n * n, "in"), b(sim, n * n, "out");
  satalgo::SatParams p = base;
  p.tile_w = w;
  return satalgo::run_algorithm(sim, algo, a, b, n, n, p);
}

/// run_checked for SKSS-LB on a batch of `batch` n×n images in one launch.
satalgo::RunResult run_checked_batch(std::size_t batch, std::size_t n,
                                     std::size_t w, ProtocolChecker& checker,
                                     const satalgo::SatParams& base = {}) {
  SimContext sim;
  sim.materialize = false;
  sim.checker = &checker;
  GlobalBuffer<float> a(sim, batch * n * n, "in"),
      b(sim, batch * n * n, "out");
  satalgo::SatParams p = base;
  p.tile_w = w;
  return satalgo::run_skss_lb_batch(sim, a, b, batch, n, n, p);
}

// --- Clean runs --------------------------------------------------------------

TEST(ProtocolChecker, AllAlgorithmsVerifyCleanly) {
  for (satalgo::Algorithm algo : satalgo::all_sat_algorithms()) {
    for (std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
      for (std::size_t w : {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
        if (!satalgo::is_tiled(algo) && w != 32) continue;
        ProtocolChecker checker;
        EXPECT_NO_THROW(run_checked(algo, n, w, checker))
            << satalgo::name_of(algo) << " n=" << n << " W=" << w;
        EXPECT_GT(checker.stats().kernels_checked, 0u);
        // Every algorithm except the naive 2R2W (no aux regions, no flags)
        // exercises the race checker.
        if (algo != satalgo::Algorithm::k2R2W) {
          EXPECT_GT(checker.stats().elements_checked, 0u)
              << satalgo::name_of(algo) << " n=" << n << " W=" << w;
        }
      }
    }
  }
}

TEST(ProtocolChecker, SoftSyncAlgorithmsEngageEveryCheckClass) {
  for (satalgo::Algorithm algo :
       {satalgo::Algorithm::kSkss, satalgo::Algorithm::kSkssLb}) {
    ProtocolChecker checker;
    run_checked(algo, 512, 64, checker);
    const auto& s = checker.stats();
    EXPECT_GT(s.claims, 0u) << satalgo::name_of(algo);
    EXPECT_GT(s.wait_edges, 0u) << satalgo::name_of(algo);
    EXPECT_GT(s.flag_publishes, 0u) << satalgo::name_of(algo);
    EXPECT_GT(s.flag_acquires, 0u) << satalgo::name_of(algo);
    EXPECT_GT(s.cells_verified, 0u) << satalgo::name_of(algo);
  }
}

TEST(ProtocolChecker, VerifiesUnderAdversarialDispatchOrders) {
  for (AssignmentOrder order : {AssignmentOrder::Reversed,
                                AssignmentOrder::Strided,
                                AssignmentOrder::Random}) {
    ProtocolChecker checker;
    satalgo::SatParams p;
    p.order = order;
    p.seed = 7;
    EXPECT_NO_THROW(
        run_checked(satalgo::Algorithm::kSkssLb, 512, 64, checker, p));
  }
}

TEST(ProtocolChecker, DoesNotPerturbTheSimulation) {
  auto run = [](ProtocolChecker* checker) {
    SimContext sim;
    sim.materialize = false;
    sim.checker = checker;
    GlobalBuffer<float> a(sim, 512 * 512, "in"), b(sim, 512 * 512, "out");
    satalgo::SatParams p;
    p.tile_w = 64;
    return satalgo::run_skss_lb(sim, a, b, 512, 512, p);
  };
  ProtocolChecker checker;
  const auto plain = run(nullptr);
  const auto checked = run(&checker);
  EXPECT_DOUBLE_EQ(plain.sum_critical_path_us(),
                   checked.sum_critical_path_us());
  EXPECT_EQ(plain.totals().element_reads, checked.totals().element_reads);
  EXPECT_EQ(plain.totals().flag_reads, checked.totals().flag_reads);
  EXPECT_EQ(plain.totals().atomic_ops, checked.totals().atomic_ops);
}

TEST(ProtocolChecker, BatchRunVerifies) {
  ProtocolChecker checker;
  SimContext sim;
  sim.materialize = false;
  sim.checker = &checker;
  const std::size_t batch = 3, n = 128;
  GlobalBuffer<float> a(sim, batch * n * n, "in"), b(sim, batch * n * n, "out");
  satalgo::SatParams p;
  p.tile_w = 64;
  EXPECT_NO_THROW(satalgo::run_skss_lb_batch(sim, a, b, batch, n, n, p));
  // 3 images × 4 tiles, every one claimed and driven to its terminal state.
  EXPECT_EQ(checker.stats().claims, 12u);
  EXPECT_EQ(checker.stats().cells_verified, 2 * 12u);  // R and C arrays
}

TEST(ProtocolChecker, AvailableThroughThePublicApi) {
  ProtocolChecker checker;
  satrepro::Options opts;
  opts.params.tile_w = 64;
  opts.checker = &checker;
  const auto input = sat::Matrix<float>::random(256, 256, 1, 0.0f, 1.0f);
  const auto result = satrepro::compute_sat(input, opts);
  EXPECT_FALSE(sat::validate_sat(input, result.table).has_value());
  EXPECT_EQ(checker.stats().kernels_checked, 1u);
  EXPECT_GT(checker.stats().claims, 0u);
  EXPECT_NE(checker.summary().find("verified"), std::string::npos);
}

// --- Fault injection: the checker catches seeded protocol violations --------

TEST(ProtocolChecker, DetectsFlagBeforeDataInversion) {
  ProtocolChecker checker;
  satalgo::SatParams p;
  p.inject = satalgo::FaultInjection::kFlagBeforeData;
  p.inject_serial = 0;
  const std::string what = expect_protocol_error(
      [&] { run_checked(satalgo::Algorithm::kSkssLb, 256, 64, checker, p); },
      "race");
  // The diagnostic names the offending tile and both blocks involved.
  EXPECT_NE(what.find("tile 0"), std::string::npos) << what;
  EXPECT_NE(what.find("block"), std::string::npos) << what;
  // The same fault in a batch of three: one kernel serves both.
  ProtocolChecker batch_checker;
  const std::string in_batch = expect_protocol_error(
      [&] { run_checked_batch(3, 256, 64, batch_checker, p); }, "race");
  EXPECT_NE(in_batch.find("tile 0"), std::string::npos) << in_batch;
}

TEST(ProtocolChecker, DetectsSigmaViolatingDependency) {
  ProtocolChecker checker;
  satalgo::SatParams p;
  p.inject = satalgo::FaultInjection::kSigmaViolation;
  p.inject_serial = 0;
  const std::string what = expect_protocol_error(
      [&] { run_checked(satalgo::Algorithm::kSkssLb, 256, 64, checker, p); },
      "sigma violation");
  EXPECT_NE(what.find("tile 0"), std::string::npos) << what;
  ProtocolChecker batch_checker;
  const std::string in_batch = expect_protocol_error(
      [&] { run_checked_batch(3, 256, 64, batch_checker, p); },
      "sigma violation");
  EXPECT_NE(in_batch.find("tile 0"), std::string::npos) << in_batch;
}

TEST(ProtocolChecker, DetectsStuckTile) {
  ProtocolChecker checker;
  satalgo::SatParams p;
  p.inject = satalgo::FaultInjection::kStuckTile;
  p.inject_serial = 5;
  const std::string what = expect_protocol_error(
      [&] { run_checked(satalgo::Algorithm::kSkssLb, 256, 64, checker, p); },
      "stuck tile");
  EXPECT_NE(what.find("sigma 5"), std::string::npos) << what;
  ProtocolChecker batch_checker;
  const std::string in_batch = expect_protocol_error(
      [&] { run_checked_batch(3, 256, 64, batch_checker, p); }, "stuck tile");
  EXPECT_NE(in_batch.find("sigma 5"), std::string::npos) << in_batch;
}

TEST(ProtocolChecker, FaultInjectionReachesThePublicApi) {
  ProtocolChecker checker;
  satrepro::Options opts;
  opts.params.tile_w = 64;
  opts.checker = &checker;
  opts.params.inject = satalgo::FaultInjection::kFlagBeforeData;
  const auto input = sat::Matrix<float>::random(256, 256, 1, 0.0f, 1.0f);
  EXPECT_THROW(satrepro::compute_sat(input, opts), ProtocolError);
  ProtocolChecker batch_checker;
  opts.checker = &batch_checker;
  EXPECT_THROW(satrepro::compute_sat_batch(
                   std::vector<sat::Matrix<float>>(3, input), opts),
               ProtocolError);
}

TEST(ProtocolChecker, ReusableAfterAReportedError) {
  // A launch that throws must leave nothing keyed by the status arrays its
  // run destroyed: one checker reports a fault, mid-launch (a race) or in
  // its kernel-end check (a stuck tile), then verifies clean runs. The
  // batch goes first: its arrays live elsewhere than the faulted run's, so
  // stale registrations cannot be overwritten by chance.
  const auto input = sat::Matrix<float>::random(256, 256, 1, 0.0f, 1.0f);
  for (satalgo::FaultInjection fault :
       {satalgo::FaultInjection::kFlagBeforeData,
        satalgo::FaultInjection::kStuckTile}) {
    ProtocolChecker checker;
    satrepro::Options opts;
    opts.params.tile_w = 64;
    opts.checker = &checker;
    opts.params.inject = fault;
    EXPECT_THROW(satrepro::compute_sat(input, opts), ProtocolError);
    opts.params.inject = satalgo::FaultInjection::kNone;
    const auto batch = satrepro::compute_sat_batch(
        std::vector<sat::Matrix<float>>(3, input), opts);
    for (const auto& table : batch.tables)
      EXPECT_FALSE(sat::validate_sat(input, table).has_value());
    const auto single = satrepro::compute_sat(input, opts);
    EXPECT_FALSE(sat::validate_sat(input, single.table).has_value());
    EXPECT_EQ(checker.stats().kernels_checked, 2u);
  }
}

TEST(ProtocolChecker, DetectsUnscheduledDependency) {
  // Direct blockIdx assignment under reversed dispatch: the first block to
  // run owns the *largest* serial and immediately waits on tiles no block
  // has claimed — the hazard that deadlocks under limited residency.
  ProtocolChecker checker;
  satalgo::SatParams p;
  p.skss_direct_assignment = true;
  p.order = AssignmentOrder::Reversed;
  expect_protocol_error(
      [&] { run_checked(satalgo::Algorithm::kSkssLb, 256, 64, checker, p); },
      "unscheduled dependency");
  ProtocolChecker batch_checker;
  expect_protocol_error(
      [&] { run_checked_batch(3, 256, 64, batch_checker, p); },
      "unscheduled dependency");
}

// --- Synthetic kernels: the checker on hand-written protocols ---------------

TEST(ProtocolChecker, SigmaCheckOnSyntheticKernel) {
  ProtocolChecker checker;
  checker.register_tile_serials({0, 1});
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  StatusArray flags("f", 2);
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 2,
                   .threads_per_block = 32};
  expect_protocol_error(
      [&] {
        launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t b) -> BlockTask {
          ctx.note_tile(b, b);
          if (b == 0) {
            // Tile 0 waiting on tile 1: a σ-increasing dependency.
            co_await ctx.wait_flag_at_least(flags, 1, 1);
          } else {
            ctx.flag_publish(flags, b, 1);
          }
          co_return;
        });
      },
      "sigma violation");
}

TEST(ProtocolChecker, DetectsCorruptedCell) {
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  StatusArray flags("f", 1);
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 1,
                   .threads_per_block = 32};
  expect_protocol_error(
      [&] {
        launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t) -> BlockTask {
          ctx.flag_publish(flags, 0, 1);
          flags.corrupt_for_test(0, 3);  // out-of-band modification
          ctx.flag_publish(flags, 0, 4);
          co_return;
        });
      },
      "corrupted");
}

TEST(ProtocolChecker, StateMachineRejectsSkippedTransition) {
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  StatusArray flags("f", 1);
  checker.expect_transitions(flags, {{0, 1}, {1, 2}}, 2);
  sim.checker = &checker;
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 1,
                   .threads_per_block = 32};
  expect_protocol_error(
      [&] {
        launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t) -> BlockTask {
          ctx.flag_publish(flags, 0, 2);  // skips state 1
          co_return;
        });
      },
      "state-machine violation");
}

TEST(ProtocolChecker, RaceOnUnsynchronizedSharing) {
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  GlobalBuffer<float> buf(sim, 8, "shared");
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 2,
                   .threads_per_block = 32};
  expect_protocol_error(
      [&] {
        launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t b) -> BlockTask {
          if (b == 0) {
            buf.note_write(ctx, 0, 4);
          } else {
            // No flag acquire orders this read after block 0's write.
            buf.note_read(ctx, 0, 4);
          }
          co_return;
        });
      },
      "race");
}

TEST(ProtocolChecker, FlagAcquireOrdersTheSharing) {
  // The same sharing as above, but release/acquire-ordered: no race.
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  GlobalBuffer<float> buf(sim, 8, "shared");
  StatusArray flags("f", 1);
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 2,
                   .threads_per_block = 32};
  EXPECT_NO_THROW(
      launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t b) -> BlockTask {
        if (b == 0) {
          buf.note_write(ctx, 0, 4);
          ctx.flag_publish(flags, 0, 1);
        } else {
          co_await ctx.wait_flag_at_least(flags, 0, 1);
          buf.note_read(ctx, 0, 4);
        }
        co_return;
      }));
  EXPECT_EQ(checker.stats().flag_acquires, 1u);
}

TEST(ProtocolChecker, KernelBarrierOrdersAcrossLaunches) {
  // A write in launch 1 and an unsynchronized read of the same region in
  // launch 2 are ordered by the kernel boundary (device-wide barrier).
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  GlobalBuffer<float> buf(sim, 8, "shared");
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 1,
                   .threads_per_block = 32};
  launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t) -> BlockTask {
    buf.note_write(ctx, 0, 8);
    co_return;
  });
  EXPECT_NO_THROW(
      launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t) -> BlockTask {
        buf.note_read(ctx, 0, 8);
        co_return;
      }));
  EXPECT_EQ(checker.stats().kernels_checked, 2u);
}

TEST(ProtocolChecker, DuplicateClaimRejected) {
  ProtocolChecker checker;
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 2,
                   .threads_per_block = 32};
  expect_protocol_error(
      [&] {
        launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t) -> BlockTask {
          ctx.note_tile(0, 0);  // every block claims the same tile
          co_return;
        });
      },
      "already owns");
}

TEST(ProtocolChecker, ChecksCanBeDisabledSelectively) {
  ProtocolChecker::Options opts;
  opts.check_races = false;
  ProtocolChecker checker(opts);
  SimContext sim(DeviceConfig::tiny());
  sim.checker = &checker;
  GlobalBuffer<float> buf(sim, 8, "shared");
  LaunchConfig cfg{.name = "synthetic", .grid_blocks = 2,
                   .threads_per_block = 32};
  EXPECT_NO_THROW(
      launch_kernel(sim, cfg, [&](BlockCtx& ctx, std::size_t b) -> BlockTask {
        if (b == 0) buf.note_write(ctx, 0, 4);
        else buf.note_read(ctx, 0, 4);
        co_return;
      }));
  EXPECT_EQ(checker.stats().elements_checked, 0u);
}

TEST(HbGraph, FindCycleReportsTheLoop) {
  HbGraph g;
  g.claim(0, 0, 0);
  g.claim(1, 1, 1);
  g.claim(2, 2, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.find_cycle().empty());
  g.add_edge(2, 0);
  const auto cycle = g.find_cycle();
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(HbGraph, VectorClockCoversAfterJoin) {
  VectorClock a, b;
  const Epoch e{0, a.tick(0)};
  EXPECT_FALSE(b.covers(e));
  b.join(a);
  EXPECT_TRUE(b.covers(e));
}

}  // namespace
