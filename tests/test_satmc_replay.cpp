// Counterexample replay: satmc's static deadlock schedule, executed by the
// real host protocol primitives.
//
// The static model checker (tools/satmc) and the dynamic interleaving
// explorer (tests/test_interleave.cpp) verify the same 1R1W-SKSS-LB
// protocol through entirely different lenses; this test welds them
// together. ctest's satmc_emit_ce fixture runs
//
//   satmc --grid 2x2 --workers 2 --mutate sigma-order-inversion
//         --emit-schedule satmc_ce.json
//
// and this test re-executes that schedule against a miniature engine built
// from the *real* src/host pieces — StatusFlags, lookback_accumulate, the
// shared TileGrid serial order — with satmc's σ-inversion seeded into the
// claim counter. The dynamic run must reproduce the statically predicted
// violation: a genuine cross-worker deadlock whose blocked waits match the
// "blocked" contract in the JSON (same axes, tiles and thresholds). If the
// model and the code ever disagree about what this schedule does, one of
// them is wrong about the protocol — exactly the drift this test exists to
// catch.
//
// Schedule granularity: a satmc step is a *fused* protocol step (one
// observe plus the publish chain behind it), while the hook layer parks at
// every claim/observe/publish. The driver therefore grants the step's
// worker repeatedly until it blocks or reaches its next claim — claim
// order, the only scheduling decision this counterexample depends on, is
// followed exactly; within a tile the worker just runs its straight-line
// protocol code.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "host/lookback.hpp"
#include "sat/tiles.hpp"
#include "sched_explorer.hpp"

namespace {

// ── Minimal JSON field extraction ─────────────────────────────────────
// The satmc schedule format is ours (tools/satmc/satmc.cpp); these helpers
// parse exactly that shape. String values in it never contain quotes or
// braces, and brackets inside descriptions are balanced.

long json_int(const std::string& s, const std::string& key) {
  const std::size_t at = s.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtol(s.c_str() + at + key.size() + 3, nullptr, 10);
}

std::string json_str(const std::string& s, const std::string& key) {
  const std::size_t at = s.find("\"" + key + "\": \"");
  if (at == std::string::npos) return {};
  const std::size_t open = at + key.size() + 5;
  return s.substr(open, s.find('"', open) - open);
}

/// Splits the `[...]` array value of `key` into its `{...}` objects.
std::vector<std::string> json_objects(const std::string& s,
                                      const std::string& key) {
  std::vector<std::string> out;
  std::size_t at = s.find("\"" + key + "\": [");
  if (at == std::string::npos) return out;
  at = s.find('[', at);
  int depth = 0;
  std::size_t open = 0;
  for (std::size_t i = at; i < s.size(); ++i) {
    if (s[i] == '{' && depth++ == 0) open = i;
    if (s[i] == '}' && --depth == 0)
      out.push_back(s.substr(open, i - open + 1));
    if (s[i] == ']' && depth == 0) break;
  }
  return out;
}

struct CeBlocked {
  std::size_t worker, tile;
  char axis;
  std::uint8_t want;
};

struct CeSchedule {
  std::size_t g_rows = 0, g_cols = 0, workers = 0;
  std::string mutation, kind;
  std::vector<CeBlocked> blocked;
  std::vector<std::pair<std::size_t, bool>> steps;  // (worker, is_claim)
};

CeSchedule parse_ce(const std::string& text) {
  CeSchedule ce;
  ce.g_rows = static_cast<std::size_t>(json_int(text, "g_rows"));
  ce.g_cols = static_cast<std::size_t>(json_int(text, "g_cols"));
  ce.workers = static_cast<std::size_t>(json_int(text, "workers"));
  ce.mutation = json_str(text, "mutation");
  ce.kind = json_str(text, "kind");
  for (const std::string& o : json_objects(text, "blocked"))
    ce.blocked.push_back({static_cast<std::size_t>(json_int(o, "worker")),
                          static_cast<std::size_t>(json_int(o, "tile")),
                          json_str(o, "axis")[0],
                          static_cast<std::uint8_t>(json_int(o, "want"))});
  // A tile grant is a "claims serial" step: one fetch_add on the counter,
  // exactly as the engine claims.
  for (const std::string& o : json_objects(text, "schedule"))
    ce.steps.emplace_back(static_cast<std::size_t>(json_int(o, "worker")),
                          json_str(o, "desc").find(" claims serial ") !=
                              std::string::npos);
  return ce;
}

// ── The miniature mutated engine ──────────────────────────────────────
// The real per-tile protocol of src/host/sat_skss_lb.hpp — same fast-path
// guard peeks, same publish order, same lookback_accumulate walks over the
// real StatusFlags — with satmc's sigma-order-inversion seeded into the
// claim: serials are handed out in *decreasing* diagonal-major order.

struct MiniEngine {
  satalgo::TileGrid grid;
  sathost::LookbackAux<long long> aux;
  std::atomic<std::size_t> counter{0};
  sathost::LookbackObs obs;  // all counters off

  MiniEngine(std::size_t g_rows, std::size_t g_cols)
      : grid(g_rows, g_cols, 1), aux(g_rows * g_cols, 1) {
    // The real engine leaves aux storage uninitialized (every slot is
    // written before its flag releases it), but the deadlock-unwind path
    // below reads slots of tiles nobody claimed — zero them here.
    const std::size_t n = grid.count();
    std::fill(aux.lrs.get(), aux.lrs.get() + n, 0);
    std::fill(aux.grs.get(), aux.grs.get() + n, 0);
    std::fill(aux.lcs.get(), aux.lcs.get() + n, 0);
    std::fill(aux.gcs.get(), aux.gcs.get() + n, 0);
    std::fill(aux.gls.get(), aux.gls.get() + n, 0);
    std::fill(aux.gs.get(), aux.gs.get() + n, 0);
  }

  void process_tile(std::size_t ti, std::size_t tj) {
    namespace hflag = sathost::hflag;
    const std::size_t self = grid.idx(ti, tj);
    bool fast = true;
    if (tj > 0)
      fast = aux.r_status.peek(grid.idx(ti, tj - 1)) >= hflag::kGrs;
    if (fast && ti > 0)
      fast = aux.c_status.peek(grid.idx(ti - 1, tj)) >= hflag::kGcs;
    if (fast && ti > 0 && tj > 0)
      fast = aux.r_status.peek(grid.idx(ti - 1, tj - 1)) >= hflag::kGs;
    if (fast) {
      aux.grs[self] = aux.gcs[self] = aux.gs[self] = 1;
      aux.r_status.publish(self, hflag::kGs);
      aux.c_status.publish(self, hflag::kGcs);
      return;
    }
    aux.lrs[self] = aux.lcs[self] = 1;
    aux.r_status.publish(self, hflag::kLrs);
    aux.c_status.publish(self, hflag::kLcs);

    long long row = 0;
    if (tj > 0)
      sathost::lookback_accumulate(
          aux.r_status, aux.lrs.get(), aux.grs.get(), 1, tj, 1, &row,
          hflag::kLrs, hflag::kGrs, obs,
          [&](std::size_t k) { return grid.idx(ti, tj - 1 - k); });
    aux.grs[self] = row + 1;
    aux.r_status.publish(self, hflag::kGrs);

    long long col = 0;
    if (ti > 0)
      sathost::lookback_accumulate(
          aux.c_status, aux.lcs.get(), aux.gcs.get(), 1, ti, 1, &col,
          hflag::kLcs, hflag::kGcs, obs,
          [&](std::size_t k) { return grid.idx(ti - 1 - k, tj); });
    aux.gcs[self] = col + 1;
    aux.c_status.publish(self, hflag::kGcs);

    aux.gls[self] = row + col + 1;
    aux.r_status.publish(self, hflag::kGls);

    long long diag = 0;
    if (ti > 0 && tj > 0)
      sathost::lookback_accumulate(
          aux.r_status, aux.gls.get(), aux.gs.get(), 1, std::min(ti, tj), 1,
          &diag, hflag::kGls, hflag::kGs, obs,
          [&](std::size_t k) { return grid.idx(ti - 1 - k, tj - 1 - k); });
    aux.gs[self] = diag + aux.gls[self];
    aux.r_status.publish(self, hflag::kGs);
  }

  void worker_body() {
    for (;;) {
      if (sathost::testhook::g_sched_hook != nullptr)
        sathost::testhook::g_sched_hook->on_claim();
      const std::size_t grant = counter.fetch_add(1, std::memory_order_relaxed);
      if (grant >= grid.count()) break;
      // satmc's kSigmaInversion: look-back dependencies then point at tiles
      // claimed after the waiter — the seeded protocol bug under replay.
      const std::size_t serial = grid.count() - 1 - grant;
      const auto [ti, tj] = grid.tile_of_serial(serial);
      process_tile(ti, tj);
    }
    if (sathost::testhook::g_sched_hook != nullptr)
      sathost::testhook::g_sched_hook->on_exit();
  }
};

TEST(SatmcReplay, StaticDeadlockScheduleReproducesDynamically) {
  const char* path = std::getenv("SATMC_CE");
  if (path == nullptr)
    GTEST_SKIP() << "SATMC_CE not set (run via ctest: the satmc_emit_ce "
                    "fixture emits the schedule)";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const CeSchedule ce = parse_ce(buf.str());

  ASSERT_EQ(ce.mutation, "sigma-order-inversion");
  ASSERT_EQ(ce.kind, "deadlock");
  ASSERT_GE(ce.workers, 2u);
  ASSERT_FALSE(ce.blocked.empty());
  ASSERT_FALSE(ce.steps.empty());

  MiniEngine engine(ce.g_rows, ce.g_cols);
  sched::ScheduleExplorer explorer(ce.workers);
  sathost::testhook::g_sched_hook = &explorer;
  std::vector<std::thread> threads;
  threads.reserve(ce.workers);
  for (std::size_t w = 0; w < ce.workers; ++w)
    threads.emplace_back([&] { engine.worker_body(); });

  // model worker id -> logical (registration-order) worker id, bound at
  // each claim step; pre-claim workers are interchangeable, so binding the
  // schedule's next claimer to any unmapped parked-at-claim worker is
  // exact.
  constexpr std::size_t kUnmapped = ~std::size_t{0};
  std::vector<std::size_t> map(ce.workers, kUnmapped);
  std::size_t si = 0;

  const auto pick = [&](const std::vector<std::size_t>& enabled) {
    const auto is_enabled = [&](std::size_t l) {
      return std::find(enabled.begin(), enabled.end(), l) != enabled.end();
    };
    while (si < ce.steps.size()) {
      const auto [m, is_claim] = ce.steps[si];
      if (map[m] != kUnmapped) {
        const std::size_t l = map[m];
        if (is_claim) {
          ++si;
          if (is_enabled(l)) return l;
          continue;
        }
        // Fused model step: keep granting this worker until it blocks or
        // is back at a claim point (never claim on another step's behalf).
        if (is_enabled(l) && explorer.point_of(l).kind !=
                                 sched::ScheduleExplorer::Kind::kClaim)
          return l;
        ++si;
        continue;
      }
      if (is_claim) {
        bool bound = false;
        for (const std::size_t l : enabled) {
          if (explorer.point_of(l).kind !=
              sched::ScheduleExplorer::Kind::kClaim)
            continue;
          if (std::find(map.begin(), map.end(), l) != map.end()) continue;
          map[m] = l;
          bound = true;
          break;
        }
        ++si;
        if (bound) return map[m];
        continue;
      }
      ++si;  // non-claim step for a worker that never claimed: stale, skip
    }
    return enabled.front();  // schedule exhausted: drain deterministically
  };

  // On the predicted deadlock: capture the blocked waits, then unwind so
  // the threads can exit — exhaust the claim counter (no new tiles) and
  // satisfy each blocked wait from the driver. σ-inversion deadlocks park
  // every waiter on a tile nobody claimed (that is the bug), so the
  // driver's publish of `want` over 0 respects flag monotonicity.
  std::vector<sched::ScheduleExplorer::ParkedWait> seen_blocked;
  bool deadlock_seen = false;
  const auto on_deadlock = [&] {
    const auto waits = explorer.blocked_waits();
    if (!deadlock_seen) {
      deadlock_seen = true;
      seen_blocked = waits;
      engine.counter.store(engine.grid.count(), std::memory_order_relaxed);
    }
    for (const auto& bw : waits) {
      auto& flags = bw.arr == &engine.aux.c_status ? engine.aux.c_status
                                                   : engine.aux.r_status;
      explorer.driver_publish(flags, bw.idx, bw.want);
    }
  };

  const sched::ScheduleExplorer::Outcome out =
      explorer.drive_by_worker(pick, on_deadlock);
  for (std::thread& t : threads) t.join();
  sathost::testhook::g_sched_hook = nullptr;

  ASSERT_FALSE(out.timeout) << "scheduler timed out";
  EXPECT_TRUE(out.deadlock && deadlock_seen)
      << "the statically predicted deadlock did not occur dynamically";

  // The dynamic blocked set must match the model's contract exactly:
  // same workers (through the claim-order mapping), same status axis,
  // same tile, same threshold.
  ASSERT_EQ(seen_blocked.size(), ce.blocked.size());
  std::vector<std::tuple<std::size_t, char, std::size_t, unsigned>> want,
      got;
  for (const CeBlocked& b : ce.blocked) {
    ASSERT_NE(map[b.worker], kUnmapped)
        << "blocked model worker " << b.worker << " never claimed";
    want.emplace_back(map[b.worker], b.axis, b.tile, b.want);
  }
  for (const auto& bw : seen_blocked)
    got.emplace_back(bw.worker,
                     bw.arr == &engine.aux.c_status ? 'C' : 'R', bw.idx,
                     bw.want);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got)
      << "dynamic blocked waits diverge from the satmc counterexample";
}

}  // namespace
