#include "gpusim/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "gpusim/errors.hpp"
#include "gpusim/protocol_checker.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gpusim {

const char* to_string(AssignmentOrder order) {
  switch (order) {
    case AssignmentOrder::Natural: return "natural";
    case AssignmentOrder::Reversed: return "reversed";
    case AssignmentOrder::Strided: return "strided";
    case AssignmentOrder::Random: return "random";
  }
  return "?";
}

namespace {

std::vector<std::size_t> admission_order(const LaunchConfig& cfg) {
  std::vector<std::size_t> order(cfg.grid_blocks);
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (cfg.order) {
    case AssignmentOrder::Natural:
      break;
    case AssignmentOrder::Reversed:
      std::reverse(order.begin(), order.end());
      break;
    case AssignmentOrder::Strided: {
      // Interleave: 0, s, 2s, ..., 1, s+1, ... with a cache-hostile stride.
      const std::size_t stride = std::max<std::size_t>(cfg.grid_blocks / 8, 1);
      std::vector<std::size_t> out;
      out.reserve(cfg.grid_blocks);
      for (std::size_t phase = 0; phase < stride; ++phase)
        for (std::size_t b = phase; b < cfg.grid_blocks; b += stride)
          out.push_back(b);
      order = std::move(out);
      break;
    }
    case AssignmentOrder::Random: {
      satutil::Rng rng(cfg.seed ^ 0x5eedf00dULL);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
      break;
    }
  }
  return order;
}

struct ResidentBlock {
  // In-place so a recycled slot re-admits a block with zero allocations
  // (the coroutine frame is likewise pooled — see task.hpp).
  std::optional<BlockCtx> ctx;
  BlockTask task;
  std::size_t logical_block = 0;
  bool parked = false;
  bool done = false;
};

/// The discrete-event block scheduler.
///
/// Invariant: every live block is in exactly one place — the run heap
/// (runnable at a known simulated time), the waiters map (parked on a status
/// cell), or finished. The next event is always the runnable block with the
/// smallest clock; a published flag moves satisfied waiters back to the heap
/// stamped with the publish time, so simulated time is globally consistent
/// across blocks (no round-robin ordering artifacts).
class Scheduler final : public FlagPublishHook {
 public:
  Scheduler(SimContext& sim, const LaunchConfig& cfg, const KernelBody& body,
            KernelReport& report, const SimCostParams& cost,
            const LaunchObs& obs, obs::Histogram* sched_occupancy,
            obs::Counter* blocks_retired)
      : sim_(sim), cfg_(cfg), body_(body), report_(report), cost_(cost),
        order_(admission_order(cfg)), obs_(obs),
        obs_on_(obs.lookback_depth != nullptr || obs.flag_wait_us != nullptr ||
                obs.flag_spins != nullptr || obs.trace != nullptr),
        sched_occupancy_(sched_occupancy), blocks_retired_(blocks_retired) {}

  void run() {
    // Slots are recycled as blocks retire, so the roster never outgrows the
    // concurrency limit (a 1M-tile count-only kernel keeps ~resident_limit
    // ResidentBlock records alive, not 1M).
    blocks_.reserve(report_.max_concurrent_blocks);
    // Fill every slot at t = 0.
    for (std::size_t s = 0;
         s < report_.max_concurrent_blocks && next_pending_ < order_.size();
         ++s) {
      admit(0.0);
    }
    while (!run_heap_.empty()) {
      const auto [t, bi] = run_heap_.top();
      run_heap_.pop();
      std::size_t cur = bi;
      // Keep stepping the same block while it remains the earliest runnable
      // event — (clock, slot) lexicographic, exactly the heap's order — to
      // spare the push/pop round trip per resume (the hot path of yield-loop
      // persistent blocks).
      while (step(cur)) {
        const double now = blocks_[cur]->ctx->now_us();
        if (!run_heap_.empty() &&
            (run_heap_.top().first < now ||
             (run_heap_.top().first == now && run_heap_.top().second < cur))) {
          run_heap_.emplace(now, cur);
          break;
        }
      }
    }
    if (parked_count_ > 0 || next_pending_ < order_.size()) {
      throw_deadlock();
    }
  }

  void on_flag_publish(const StatusArray& arr, std::size_t idx) override {
    // Every flag write lands here (millions per count-only run); skip the
    // table probe outright when nothing is parked.
    if (parked_count_ == 0) return;
    const auto key = std::make_pair(static_cast<const void*>(&arr), idx);
    const auto it = waiters_.find(key);
    if (it == waiters_.end()) return;
    auto& list = it->second;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      ResidentBlock& w = *blocks_[list[k]];
      if (w.ctx->wait_satisfied()) {
        // The waiter resumes one poll round-trip after the publish
        // (wake_at also closes the wait's obs span, so it runs while the
        // wait target is still attached).
        w.ctx->wake_at(arr.cell(idx).publish_us);
        w.ctx->clear_wait();
        w.parked = false;
        --parked_count_;
        run_heap_.emplace(w.ctx->now_us(), list[k]);
      } else {
        list[kept++] = list[k];
      }
    }
    list.resize(kept);
    if (list.empty()) waiters_.erase(it);
  }

 private:
  void admit(double start_us) {
    const std::size_t logical = order_[next_pending_++];
    std::size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      blocks_.push_back(std::make_unique<ResidentBlock>());
      slot = blocks_.size() - 1;
    }
    ResidentBlock& rec = *blocks_[slot];
    rec.ctx.emplace(logical, cfg_.threads_per_block, cost_, report_.counters,
                    start_us);
    rec.ctx->set_publish_hook(this);
    rec.ctx->set_checker(sim_.checker);
    if (obs_on_) rec.ctx->set_obs(&obs_, slot);
    rec.logical_block = logical;
    rec.parked = false;
    rec.done = false;
    rec.task = body_(*rec.ctx, logical);
    SAT_CHECK_MSG(rec.task.valid(),
                  "kernel '" << cfg_.name << "' body returned invalid task");
    run_heap_.emplace(start_us, slot);
    ++live_count_;
    if (sched_occupancy_ != nullptr) sched_occupancy_->record(live_count_);
  }

  /// Resumes block `bi` once. Returns true iff the block is still runnable
  /// (yield or already-satisfied wait) — the caller re-queues or re-steps it.
  bool step(std::size_t bi) {
    ResidentBlock& r = *blocks_[bi];
    SAT_DCHECK(!r.done && !r.parked);
    bool finished = false;
    try {
      finished = r.task.resume();
    } catch (const SimError&) {
      throw;  // already diagnostic
    } catch (const std::exception& e) {
      throw BlockError("kernel '" + cfg_.name + "', block " +
                       std::to_string(r.logical_block) + ": " + e.what());
    }
    if (finished) {
      r.done = true;
      --live_count_;
      const double end_us = r.ctx->now_us();
      report_.critical_path_us = std::max(report_.critical_path_us, end_us);
      report_.sum_block_busy_us +=
          end_us - r.ctx->start_us() - r.ctx->wait_us();
      report_.sum_block_wait_us += r.ctx->wait_us();
      report_.max_lookback_depth =
          std::max(report_.max_lookback_depth, r.ctx->max_lookback_depth());
      if (cfg_.record_trace) {
        report_.trace.push_back(BlockTraceEntry{
            r.logical_block, r.ctx->start_us(), end_us, r.ctx->wait_us()});
      }
      if (blocks_retired_ != nullptr) blocks_retired_->add();
      if (sched_occupancy_ != nullptr)
        sched_occupancy_->record(live_count_);
      if (obs_.trace != nullptr) {
        // One span per block on its residency-slot lane: the Gantt view of
        // the look-back waves. Wait and look-back spans nest inside it.
        char args[96];
        std::snprintf(args, sizeof args,
                      "{\"logical\":%zu,\"wait_us\":%.3f}", r.logical_block,
                      r.ctx->wait_us());
        obs_.trace->complete(obs_.trace_pid, bi,
                             "block " + std::to_string(r.logical_block),
                             "block", r.ctx->start_us(),
                             end_us - r.ctx->start_us(), args);
      }
      // Release the frame and context (its frame returns to the pool),
      // recycle the slot, then hand it to the next pending block. Order
      // matters: admit() may claim this very slot.
      r.task = BlockTask{};
      r.ctx.reset();
      free_slots_.push_back(bi);
      if (next_pending_ < order_.size()) admit(end_us);
      return false;
    }
    if (r.ctx->is_waiting()) {
      if (r.ctx->wait_satisfied()) {
        // Satisfied between suspension setup and now cannot happen in a
        // single-threaded simulation, but handle it for robustness.
        r.ctx->clear_wait();
        return true;
      }
      r.ctx->count_spin();
      r.parked = true;
      ++parked_count_;
      waiters_[{static_cast<const void*>(r.ctx->wait_array()),
                r.ctx->wait_index()}]
          .push_back(bi);
      return false;
    }
    // Plain yield: runnable again at the same clock.
    return true;
  }

  [[noreturn]] void throw_deadlock() {
    std::ostringstream os;
    os << "deadlock in kernel '" << cfg_.name << "' (order "
       << to_string(cfg_.order) << "): " << parked_count_
       << " resident block(s) all blocked, "
       << (order_.size() - next_pending_) << " block(s) pending admission";
    std::size_t shown = 0;
    for (const auto& rec : blocks_) {
      if (rec == nullptr || !rec->ctx || rec->done || !rec->parked) continue;
      if (shown++ == 10) {
        os << "\n  ...";
        break;
      }
      os << "\n  " << rec->ctx->describe_wait();
    }
    throw DeadlockError(os.str());
  }

  SimContext& sim_;
  const LaunchConfig& cfg_;
  const KernelBody& body_;
  KernelReport& report_;
  const SimCostParams& cost_;
  const std::vector<std::size_t> order_;
  const LaunchObs obs_;
  const bool obs_on_;
  obs::Histogram* sched_occupancy_;
  obs::Counter* blocks_retired_;
  std::size_t next_pending_ = 0;

  std::vector<std::unique_ptr<ResidentBlock>> blocks_;
  // Indices of retired slots available for the next admit().
  std::vector<std::size_t> free_slots_;
  // Min-heap of (runnable-at time, block index). Ties broken by index for
  // determinism (std::pair comparison).
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      run_heap_;
  // (status array, cell) → parked block slots. Hashed: probed on every flag
  // publish while any block is parked, so ordered-map node walks would
  // dominate look-back-heavy count-only runs.
  struct WaitKeyHash {
    std::size_t operator()(
        const std::pair<const void*, std::size_t>& k) const noexcept {
      const auto a = reinterpret_cast<std::uintptr_t>(k.first);
      return static_cast<std::size_t>(
          (a ^ (k.second + 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccdULL);
    }
  };
  std::unordered_map<std::pair<const void*, std::size_t>,
                     std::vector<std::size_t>, WaitKeyHash>
      waiters_;
  std::size_t parked_count_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace

KernelReport launch_kernel(SimContext& sim, const LaunchConfig& cfg,
                           const KernelBody& body) try {
  SAT_CHECK_MSG(cfg.grid_blocks > 0, "kernel '" << cfg.name << "': empty grid");
  const std::size_t resident_limit = sim.device.resident_block_limit(
      cfg.threads_per_block, cfg.shared_bytes_per_block);

  KernelReport report;
  report.name = cfg.name;
  report.grid_blocks = cfg.grid_blocks;
  report.threads_per_block = cfg.threads_per_block;
  report.shared_bytes_per_block = cfg.shared_bytes_per_block;
  report.resident_limit = resident_limit;
  report.max_concurrent_blocks = std::min(resident_limit, cfg.grid_blocks);

  // Per-kernel bandwidth share: with C concurrent blocks each gets the
  // device's achievable bandwidth ÷ C, but never more than its SM can pull
  // divided by the blocks co-resident on that SM. This is what exposes the
  // paper's small-matrix underutilization (few blocks → latency-bound, not
  // bandwidth-bound) while full grids aggregate to the device bandwidth.
  SimCostParams cost = sim.cost;
  {
    const auto concurrent = static_cast<double>(report.max_concurrent_blocks);
    const double bpsm_used =
        std::ceil(concurrent / static_cast<double>(sim.device.num_sms));
    const double per_block_gbps =
        std::min(sim.device.effective_bandwidth_gbps / concurrent,
                 sim.device.sm_peak_bandwidth_gbps / bpsm_used);
    const double us_per_sector = static_cast<double>(sim.device.sector_bytes) /
                                 (per_block_gbps * 1e3);
    cost.us_per_read_sector = us_per_sector;
    cost.us_per_write_sector = us_per_sector;
    const double per_block_l2_gbps =
        std::min(sim.device.l2_bandwidth_gbps / concurrent,
                 sim.device.sm_l2_peak_gbps / bpsm_used);
    cost.us_per_l2_sector = static_cast<double>(sim.device.sector_bytes) /
                            (per_block_l2_gbps * 1e3);
  }

  if (sim.checker != nullptr)
    sim.checker->on_kernel_begin(cfg.name, cfg.grid_blocks, resident_limit);

  // Resolve observability handles once per launch (the only name lookups);
  // blocks then publish through raw pointers.
  LaunchObs obs;
  obs::Histogram* sched_occupancy = nullptr;
  obs::Counter* blocks_retired = nullptr;
  if (sim.metrics != nullptr) {
    obs.lookback_depth = &sim.metrics->histogram("sim.lookback_depth");
    obs.flag_wait_us = &sim.metrics->histogram("sim.flag_wait_us");
    obs.flag_spins = &sim.metrics->counter("sim.flag_spins");
    sched_occupancy = &sim.metrics->histogram("sim.sched_occupancy");
    blocks_retired = &sim.metrics->counter("sim.blocks_retired");
  }
  if (sim.trace != nullptr) {
    obs.trace = sim.trace;
    obs.trace_pid = sim.trace->register_process(cfg.name);
  }

  Scheduler scheduler(sim, cfg, body, report, cost, obs, sched_occupancy,
                      blocks_retired);
  scheduler.run();

  if (sim.checker != nullptr) sim.checker->on_kernel_end();

  if (sim.metrics != nullptr) {
    sim.metrics->counter("sim.kernel_launches").add();
    // Coalescing efficiency: useful payload bytes over issued sector bytes.
    // 100 % means every 32 B transaction was fully used (the paper's
    // coalesced accesses); a strided walk of f32 scores 12.5 %.
    const Counters& c = report.counters;
    auto pct = [&](std::uint64_t bytes, std::uint64_t sectors) {
      return sectors == 0 ? 100.0
                          : 100.0 * static_cast<double>(bytes) /
                                (static_cast<double>(sectors) *
                                 static_cast<double>(sim.device.sector_bytes));
    };
    sim.metrics->gauge("sim.read_coalescing_pct")
        .set(pct(c.global_bytes_read, c.global_read_sectors));
    sim.metrics->gauge("sim.write_coalescing_pct")
        .set(pct(c.global_bytes_written, c.global_write_sectors));
  }

  sim.reports.push_back(report);
  return report;
} catch (...) {
  // A launch that throws (a protocol violation, a deadlock, a refused
  // configuration) still closes the checker's launch, unverified, so what
  // was registered for it cannot outlive the run and the checker serves the
  // next launch.
  if (sim.checker != nullptr) sim.checker->on_kernel_end(/*verify=*/false);
  throw;
}

}  // namespace gpusim
