// BlockCtx: the per-block execution context handed to kernel bodies.
//
// It plays the role of the CUDA built-ins (blockIdx, blockDim) plus the
// accounting interface: every primitive reports its global-memory traffic,
// shared-memory cycles, warp ops and synchronization through this object,
// which advances the block's simulated clock and the kernel's counters.
#pragma once

#include <cstddef>
#include <cstdint>

#include <string>

#include "gpusim/coalescing.hpp"
#include "gpusim/cost.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/flags.hpp"
#include "gpusim/protocol_checker.hpp"
#include "gpusim/task.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace gpusim {

/// Per-launch observability bundle (see src/obs/): metric handles resolved
/// once by launch_kernel plus the trace sink and this launch's trace
/// process id. Blocks hold a pointer to it that is null when observability
/// is off, so each hook costs one branch; events are per coarse action
/// (walk, wait, block), never per memory access.
struct LaunchObs {
  obs::Histogram* lookback_depth = nullptr;  ///< sim.lookback_depth
  obs::Histogram* flag_wait_us = nullptr;    ///< sim.flag_wait_us
  obs::Counter* flag_spins = nullptr;        ///< sim.flag_spins
  obs::TraceSink* trace = nullptr;
  int trace_pid = 0;
};

/// Scheduler hook invoked when a block publishes a status flag, so parked
/// waiters can be woken with the publisher's timestamp (discrete-event
/// wakeup — see kernel.cpp).
class FlagPublishHook {
 public:
  virtual ~FlagPublishHook() = default;
  virtual void on_flag_publish(const StatusArray& arr, std::size_t idx) = 0;
};

class BlockCtx {
 public:
  BlockCtx(std::size_t block_id, int threads, const SimCostParams& cost,
           Counters& kernel_counters, double start_us)
      : block_id_(block_id),
        threads_(threads),
        cost_(&cost),
        counters_(&kernel_counters),
        clock_us_(start_us + cost.block_start_us),
        start_us_(start_us) {}

  [[nodiscard]] std::size_t block_id() const { return block_id_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] int warps() const { return (threads_ + 31) / 32; }
  [[nodiscard]] double now_us() const { return clock_us_; }
  [[nodiscard]] double start_us() const { return start_us_; }
  [[nodiscard]] double wait_us() const { return wait_us_; }
  [[nodiscard]] std::size_t max_lookback_depth() const {
    return max_lookback_depth_;
  }

  // --- Global memory traffic ------------------------------------------------

  /// Coalesced read of `count` contiguous elements of size `elem_bytes`.
  void read_contiguous(std::size_t count, std::size_t elem_bytes) {
    const std::size_t s = sectors_contiguous(count, elem_bytes);
    account_read(count, count * elem_bytes, s, s);
  }

  /// Coalesced write of `count` contiguous elements.
  void write_contiguous(std::size_t count, std::size_t elem_bytes) {
    const std::size_t s = sectors_contiguous(count, elem_bytes);
    account_write(count, count * elem_bytes, s, s);
  }

  /// `rows` equally-sized coalesced reads of `count` contiguous elements
  /// each (the W row segments of a tile load, or a halo's rows). The sector
  /// count of one segment is computed once and scaled, so the integer
  /// counters are bit-identical to `rows` read_contiguous calls while the
  /// accounting work is O(1) instead of O(rows) — the count-only fast path.
  void read_contiguous_rows(std::size_t rows, std::size_t count,
                            std::size_t elem_bytes) {
    const std::size_t s = sectors_contiguous(count, elem_bytes);
    account_read(rows * count, rows * count * elem_bytes, rows * s, rows * s);
  }

  /// `rows` equally-sized coalesced writes of `count` contiguous elements.
  void write_contiguous_rows(std::size_t rows, std::size_t count,
                             std::size_t elem_bytes) {
    const std::size_t s = sectors_contiguous(count, elem_bytes);
    account_write(rows * count, rows * count * elem_bytes, rows * s, rows * s);
  }

  /// Read of `count` elements where each warp accesses lanes `stride_elems`
  /// apart (column of a row-major matrix): one sector issued per element,
  /// but per-thread sequential walks re-touch sectors, so DRAM traffic is
  /// count ÷ (sector/elem) when `l2_reuse` (the walk fits in L2).
  void read_strided_walk(std::size_t count, std::size_t elem_bytes,
                         bool l2_reuse) {
    const std::size_t issued = count;  // each lane its own sector
    const std::size_t dram =
        l2_reuse ? (count + elems_per_sector(elem_bytes) - 1) /
                       elems_per_sector(elem_bytes)
                 : count;
    account_read(count, count * elem_bytes, issued, dram);
  }

  void write_strided_walk(std::size_t count, std::size_t elem_bytes,
                          bool l2_reuse) {
    const std::size_t issued = count;
    const std::size_t dram =
        l2_reuse ? (count + elems_per_sector(elem_bytes) - 1) /
                       elems_per_sector(elem_bytes)
                 : count;
    account_write(count, count * elem_bytes, issued, dram);
  }

  /// `reps` identical strided-walk reads (a thread-per-row scan charging one
  /// walk per column). Counter-identical to `reps` read_strided_walk calls.
  void read_strided_walk_rows(std::size_t reps, std::size_t count,
                              std::size_t elem_bytes, bool l2_reuse) {
    const std::size_t dram =
        l2_reuse ? (count + elems_per_sector(elem_bytes) - 1) /
                       elems_per_sector(elem_bytes)
                 : count;
    account_read(reps * count, reps * count * elem_bytes, reps * count,
                 reps * dram);
  }

  void write_strided_walk_rows(std::size_t reps, std::size_t count,
                               std::size_t elem_bytes, bool l2_reuse) {
    const std::size_t dram =
        l2_reuse ? (count + elems_per_sector(elem_bytes) - 1) /
                       elems_per_sector(elem_bytes)
                 : count;
    account_write(reps * count, reps * count * elem_bytes, reps * count,
                  reps * dram);
  }

  // --- Intra-block machinery ------------------------------------------------

  /// `cycles` warp-serialized shared-memory access cycles plus
  /// `conflict_extra` additional cycles lost to bank conflicts.
  void shared_cycles(std::size_t cycles, std::size_t conflict_extra = 0) {
    counters_->shared_cycles += cycles;
    counters_->shared_conflict_cycles += conflict_extra;
    clock_us_ += static_cast<double>(cycles + conflict_extra) *
                 cost_->us_per_shared_cycle;
  }

  void warp_alu(std::size_t vector_ops) {
    counters_->warp_alu_ops += vector_ops;
    clock_us_ += static_cast<double>(vector_ops) * cost_->us_per_warp_alu;
  }

  void shfl(std::size_t ops) {
    counters_->shfl_ops += ops;
    clock_us_ += static_cast<double>(ops) * cost_->us_per_shfl;
  }

  /// __syncthreads(): an intra-block barrier (the block is one coroutine,
  /// so this only costs time and counts the event).
  void sync() {
    counters_->syncthreads += 1;
    clock_us_ += cost_->us_per_sync;
  }

  // --- Soft synchronization ---------------------------------------------------

  /// atomicAdd on a global counter (the SKSS work-assignment primitive).
  std::uint32_t atomic_fetch_add(GlobalAtomicU32& counter,
                                 std::uint32_t delta = 1) {
    counters_->atomic_ops += 1;
    clock_us_ += cost_->us_per_atomic;
    return counter.fetch_add(delta);
  }

  /// Release-writes `value` into a status cell at the current clock (models
  /// __threadfence() + flag store: any payload written before this call is
  /// visible to whoever observes the flag).
  void flag_publish(StatusArray& arr, std::size_t idx, std::uint8_t value) {
    counters_->flag_writes += 1;
    clock_us_ += cost_->us_per_flag_write;
    if (checker_ != nullptr)
      checker_->on_flag_publish(block_id_, arr, idx, value);
    arr.publish(idx, value, clock_us_);
    if (publish_hook_ != nullptr) publish_hook_->on_flag_publish(arr, idx);
  }

  void set_publish_hook(FlagPublishHook* hook) { publish_hook_ = hook; }

  // --- Protocol checker events (no-ops when no checker is attached) -----------

  void set_checker(ProtocolChecker* checker) { checker_ = checker; }

  /// Announces that this block owns the tile with row-major index `tile`
  /// and serial order σ = `serial` (call right after self-assignment,
  /// before the first dependency wait).
  void note_tile(std::size_t tile, std::size_t serial) {
    if (checker_ != nullptr) checker_->on_tile_claim(block_id_, tile, serial);
  }

  /// Reports a write / read of `count` elements at `offset` in the region
  /// keyed by `buf` (usually a GlobalBuffer address). Pure analysis events:
  /// no cost or counter is charged.
  void note_region_write(const void* buf, const std::string& name,
                         std::size_t offset, std::size_t count) {
    if (checker_ != nullptr)
      checker_->on_region_write(block_id_, buf, name, offset, count);
  }
  void note_region_read(const void* buf, const std::string& name,
                        std::size_t offset, std::size_t count) {
    if (checker_ != nullptr)
      checker_->on_region_read(block_id_, buf, name, offset, count);
  }

  /// Awaitable for `co_await ctx.wait_flag_at_least(R, idx, 1)`. Suspends
  /// until the cell reaches `min_value`; resumes with the observed value and
  /// the clock advanced to at least the cell's publish time.
  struct FlagWait {
    BlockCtx& ctx;
    StatusArray& arr;
    std::size_t idx;
    std::uint8_t min_value;

    bool await_ready() const {
      if (ctx.checker_ != nullptr)
        ctx.checker_->on_flag_wait(ctx.block_id_, arr, idx, min_value);
      return arr.cell(idx).value >= min_value;
    }
    void await_suspend(std::coroutine_handle<>) const {
      ctx.wait_arr_ = &arr;
      ctx.wait_idx_ = idx;
      ctx.wait_min_ = min_value;
    }
    std::uint8_t await_resume() const {
      // Reached either immediately (await_ready) or via scheduler release;
      // in both cases acquire the cell now.
      return ctx.acquire_flag(arr, idx);
    }
  };

  [[nodiscard]] FlagWait wait_flag_at_least(StatusArray& arr, std::size_t idx,
                                            std::uint8_t min_value) {
    return FlagWait{*this, arr, idx, min_value};
  }

  /// Non-blocking acquire-read of a status cell (look-back inspection when
  /// the cell is known to be published).
  std::uint8_t acquire_flag(StatusArray& arr, std::size_t idx) {
    const StatusArray::Cell& c = arr.cell(idx);
    counters_->flag_reads += 1;
    if (c.publish_us > clock_us_) {
      // The publish lies in this block's future: it was spinning on the
      // cell and resumes one poll round-trip after the publish lands.
      const double resume = c.publish_us + cost_->us_wait_discovery;
      record_wait_obs(arr, idx, clock_us_, resume);
      wait_us_ += resume - clock_us_;
      clock_us_ = resume;
    }
    clock_us_ += cost_->us_per_flag_read;
    if (checker_ != nullptr)
      checker_->on_flag_acquire(block_id_, arr, idx, c.value);
    return c.value;
  }

  /// Marks the start of a look-back walk; the matching note_lookback_depth
  /// call closes it. Only used for the obs trace span — safe to omit (the
  /// depth histogram and max still record).
  void lookback_begin() {
    if (obs_ != nullptr) lb_start_us_ = clock_us_;
  }

  /// Records the length of one look-back walk (for the ablation reports and
  /// the sim.lookback_depth histogram).
  void note_lookback_depth(std::size_t depth) {
    if (depth > max_lookback_depth_) max_lookback_depth_ = depth;
    if (obs_ != nullptr) {
      if (obs_->lookback_depth != nullptr) obs_->lookback_depth->record(depth);
      if (obs_->trace != nullptr && lb_start_us_ >= 0.0) {
        obs_->trace->complete(
            obs_->trace_pid, trace_tid_, "lookback", "lookback", lb_start_us_,
            clock_us_ - lb_start_us_,
            "{\"depth\":" + std::to_string(depth) + "}");
      }
      lb_start_us_ = -1.0;
    }
  }

  // --- Scheduler interface ----------------------------------------------------

  [[nodiscard]] bool is_waiting() const { return wait_arr_ != nullptr; }
  [[nodiscard]] bool wait_satisfied() const {
    return wait_arr_->cell(wait_idx_).value >= wait_min_;
  }
  [[nodiscard]] const StatusArray* wait_array() const { return wait_arr_; }

  /// Called by the scheduler when waking a parked block: the spinning loop
  /// discovers the publish one poll round-trip after it lands. Must run
  /// before clear_wait() so the wait span can name the status array.
  void wake_at(double publish_us) {
    const double resume = publish_us + cost_->us_wait_discovery;
    if (resume > clock_us_) {
      if (wait_arr_ != nullptr)
        record_wait_obs(*wait_arr_, wait_idx_, clock_us_, resume);
      wait_us_ += resume - clock_us_;
      clock_us_ = resume;
    }
  }

  [[nodiscard]] std::size_t wait_index() const { return wait_idx_; }
  void clear_wait() { wait_arr_ = nullptr; }
  void count_spin() {
    counters_->flag_polls += 1;
    if (obs_ != nullptr && obs_->flag_spins != nullptr)
      obs_->flag_spins->add();
  }

  // --- Observability (no-ops when no LaunchObs is attached) -------------------

  void set_obs(const LaunchObs* o, std::uint64_t trace_tid) {
    obs_ = o;
    trace_tid_ = trace_tid;
  }
  [[nodiscard]] std::uint64_t trace_tid() const { return trace_tid_; }
  [[nodiscard]] std::string describe_wait() const {
    if (wait_arr_ == nullptr) return "not waiting";
    return "block " + std::to_string(block_id_) + " waits for '" +
           wait_arr_->name() + "'[" + std::to_string(wait_idx_) +
           "] >= " + std::to_string(int(wait_min_)) + " (current " +
           std::to_string(int(wait_arr_->cell(wait_idx_).value)) + ")";
  }

  [[nodiscard]] Counters& counters() { return *counters_; }
  [[nodiscard]] const SimCostParams& cost() const { return *cost_; }

 private:
  /// One soft-sync wait ended: the block stalled on `arr[idx]` from
  /// `from_us` until `to_us`. Feeds the sim.flag_wait_us histogram (µs,
  /// rounded) and the "wait" trace spans.
  void record_wait_obs(const StatusArray& arr, std::size_t idx, double from_us,
                       double to_us) {
    if (obs_ == nullptr) return;
    if (obs_->flag_wait_us != nullptr) {
      obs_->flag_wait_us->record(
          static_cast<std::uint64_t>(to_us - from_us + 0.5));
    }
    if (obs_->trace != nullptr) {
      obs_->trace->complete(obs_->trace_pid, trace_tid_, arr.name(), "wait",
                            from_us, to_us - from_us,
                            "{\"cell\":" + std::to_string(idx) + "}");
    }
  }

  // Issued transactions that DRAM serves pay the DRAM-share cost; the
  // remainder (re-touched sectors of strided walks) hit in L2 and pay the
  // cheaper L2-share cost.
  void account_read(std::size_t elements, std::size_t bytes,
                    std::size_t sectors, std::size_t dram_sectors) {
    counters_->element_reads += elements;
    counters_->global_bytes_read += bytes;
    counters_->global_read_sectors += sectors;
    counters_->dram_read_sectors += dram_sectors;
    clock_us_ +=
        static_cast<double>(dram_sectors) * cost_->us_per_read_sector +
        static_cast<double>(sectors - dram_sectors) * cost_->us_per_l2_sector;
  }
  void account_write(std::size_t elements, std::size_t bytes,
                     std::size_t sectors, std::size_t dram_sectors) {
    counters_->element_writes += elements;
    counters_->global_bytes_written += bytes;
    counters_->global_write_sectors += sectors;
    counters_->dram_write_sectors += dram_sectors;
    clock_us_ +=
        static_cast<double>(dram_sectors) * cost_->us_per_write_sector +
        static_cast<double>(sectors - dram_sectors) * cost_->us_per_l2_sector;
  }

  std::size_t block_id_;
  int threads_;
  const SimCostParams* cost_;
  Counters* counters_;
  double clock_us_;
  double start_us_;
  double wait_us_ = 0.0;
  std::size_t max_lookback_depth_ = 0;

  FlagPublishHook* publish_hook_ = nullptr;
  ProtocolChecker* checker_ = nullptr;

  // Observability: null when off. trace_tid_ is the residency slot, so
  // trace rows render as SM-slot Gantt lanes; lb_start_us_ carries the open
  // look-back span's start (< 0 when no walk is open).
  const LaunchObs* obs_ = nullptr;
  std::uint64_t trace_tid_ = 0;
  double lb_start_us_ = -1.0;

  // Active wait target (nullptr when runnable).
  StatusArray* wait_arr_ = nullptr;
  std::size_t wait_idx_ = 0;
  std::uint8_t wait_min_ = 0;
};

}  // namespace gpusim
