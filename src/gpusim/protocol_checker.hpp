// ProtocolChecker: opt-in verification of the soft-synchronization protocol
// every simulated execution follows.
//
// Attach one to SimContext (`sim.checker = &checker`) and every subsequent
// launch_kernel records a happens-before graph of the execution and verifies
// three properties, throwing gpusim::ProtocolError with a diagnostic that
// names the offending tiles and blocks when one fails:
//
//  1. Release/acquire ordering (races). Instrumented GlobalBuffer regions
//     (the aux vectors/scalars and scan partials) record per-element write
//     epochs and read sets; flag publishes release the publisher's vector
//     clock into the cell, flag acquires join it into the reader. A read
//     whose producing write is not ordered before it — including the classic
//     "flag published before the data it guards" inversion — is a race.
//
//  2. Deadlock freedom. Look-back waits are recorded as inter-tile
//     dependency edges. Every edge must strictly decrease the serial order
//     σ(I,J) and point at an already-claimed (i.e. already-scheduled) tile —
//     the two facts that make the paper's §IV residency argument go through
//     for any fair scheduler with R ≥ 1 resident blocks. The final graph is
//     additionally checked acyclic.
//
//  3. Protocol state machine. Per StatusArray an expected transition table
//     (e.g. 0→LRS→GRS→GLS→GS) is enforced on every publish, shadow values
//     detect out-of-band corruption, and at kernel end every cell must have
//     reached its terminal state exactly once (a cell stuck mid-protocol
//     names the tile and its owning block).
//
// The checker observes the simulation without perturbing it: no counter,
// timestamp, or scheduling decision changes when it is attached (asserted by
// tests comparing critical paths with and without the checker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/hb_graph.hpp"

namespace gpusim {

class StatusArray;

class ProtocolChecker {
 public:
  struct Options {
    bool check_races = true;          ///< release/acquire ordering (class 1)
    bool check_schedule = true;       ///< σ / scheduled-target edges (class 2)
    bool check_state_machine = true;  ///< transition tables (class 3)
  };

  /// Evidence that the checker actually engaged, for tests and `satcli`.
  struct Stats {
    std::size_t kernels_checked = 0;
    std::size_t claims = 0;
    std::size_t region_writes = 0;   ///< instrumented region write events
    std::size_t region_reads = 0;    ///< instrumented region read events
    std::size_t elements_checked = 0;  ///< per-element race checks performed
    std::size_t flag_publishes = 0;
    std::size_t flag_acquires = 0;
    std::size_t wait_edges = 0;      ///< look-back dependency edges recorded
    std::size_t cells_verified = 0;  ///< cells checked against terminal state
  };

  ProtocolChecker() = default;
  explicit ProtocolChecker(Options opts) : opts_(opts) {}

  // --- Host-side registration (call before the kernel launch) --------------

  /// Declares σ for every tile of the upcoming launch: serial_of_tile[t] is
  /// the serial order of tile index t. Lets the σ check fire even when the
  /// wait target has not been claimed yet. Cleared at kernel end.
  void register_tile_serials(std::vector<std::size_t> serial_of_tile);

  using Transition = std::pair<std::uint8_t, std::uint8_t>;

  /// Declares the expected state machine of `arr` for the upcoming launch:
  /// every publish must perform one of `allowed` (old→new) transitions and
  /// every cell must end at `terminal`, reached exactly once. Cleared at
  /// kernel end.
  void expect_transitions(const StatusArray& arr,
                          std::vector<Transition> allowed,
                          std::uint8_t terminal);

  // --- Events (fired by the simulator; not for direct use) ------------------

  void on_kernel_begin(const std::string& name, std::size_t grid_blocks,
                       std::size_t resident_limit);
  /// Closes the launch. Its registrations and per-launch state are dropped
  /// before any kernel-end check can throw, so the checker is ready for the
  /// next launch whatever ended this one. `verify` runs the kernel-end
  /// checks (terminal states, acyclicity); a launch that threw skips them.
  void on_kernel_end(bool verify = true);

  /// A block announced it owns a tile (after atomic self-assignment).
  void on_tile_claim(BlockId block, std::size_t tile, std::size_t serial);

  /// Instrumented global-memory region accesses.
  void on_region_write(BlockId block, const void* buf, const std::string& name,
                       std::size_t offset, std::size_t count);
  void on_region_read(BlockId block, const void* buf, const std::string& name,
                      std::size_t offset, std::size_t count);

  /// A block is about to test/wait on `arr[idx] >= min_value` (fired once
  /// per co_await, before the readiness test).
  void on_flag_wait(BlockId block, const StatusArray& arr, std::size_t idx,
                    std::uint8_t min_value);

  /// A block publishes `value` into `arr[idx]` (fired just before the store,
  /// so the pre-publish cell value is still observable).
  void on_flag_publish(BlockId block, const StatusArray& arr, std::size_t idx,
                       std::uint8_t value);

  /// A block acquire-read `arr[idx]` and observed `observed`.
  void on_flag_acquire(BlockId block, const StatusArray& arr, std::size_t idx,
                       std::uint8_t observed);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const HbGraph& graph() const { return graph_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// One-line human summary of what was verified (for satcli).
  [[nodiscard]] std::string summary() const;

 private:
  struct ElemState {
    Epoch write;
    bool has_write = false;
    std::size_t writer_tile = kNoTile;
    std::vector<Epoch> reads;  // concurrent reads; covered entries pruned
  };

  struct BufState {
    std::string name;
    std::unordered_map<std::size_t, ElemState> elems;
  };

  struct CellState {
    std::uint8_t shadow = 0;  ///< value per recorded publishes
    VectorClock release;      ///< cumulative release clock
    BlockId last_publisher = 0;
    bool has_publish = false;
    std::size_t terminal_hits = 0;  ///< publishes that reached the terminal
  };

  struct ArrState {
    const StatusArray* arr = nullptr;
    std::string name;
    std::unordered_map<std::size_t, CellState> cells;
  };

  struct Spec {
    const StatusArray* arr = nullptr;
    std::vector<Transition> allowed;
    std::uint8_t terminal = 0;
  };

  ArrState& arr_state(const StatusArray& arr);
  VectorClock& clock_of(BlockId block);
  [[nodiscard]] std::string tile_label(std::size_t tile) const;
  [[noreturn]] void fail(const std::string& what) const;
  void verify_state_machines(
      const std::unordered_map<const void*, Spec>& specs);
  void verify_acyclic();
  void reset_kernel_state();

  Options opts_;
  Stats stats_;
  HbGraph graph_;

  std::string kernel_name_;
  std::size_t resident_limit_ = 0;
  bool in_kernel_ = false;

  std::vector<VectorClock> clocks_;          // per block
  std::vector<std::size_t> current_tile_;    // per block; kNoTile if none
  std::unordered_map<const void*, BufState> buffers_;
  std::unordered_map<const void*, ArrState> arrays_;
  std::unordered_map<const void*, Spec> specs_;
  std::vector<std::size_t> registered_serials_;  // by tile index; empty = none
};

}  // namespace gpusim
