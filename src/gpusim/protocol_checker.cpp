#include "gpusim/protocol_checker.hpp"

#include <string>
#include <utility>
#include <vector>

#include "gpusim/errors.hpp"
#include "gpusim/flags.hpp"

namespace gpusim {

namespace {

std::string u8str(std::uint8_t v) { return std::to_string(int(v)); }

}  // namespace

void ProtocolChecker::register_tile_serials(
    std::vector<std::size_t> serial_of_tile) {
  registered_serials_ = std::move(serial_of_tile);
}

void ProtocolChecker::expect_transitions(const StatusArray& arr,
                                         std::vector<Transition> allowed,
                                         std::uint8_t terminal) {
  Spec& s = specs_[&arr];
  s.arr = &arr;
  s.allowed = std::move(allowed);
  s.terminal = terminal;
}

void ProtocolChecker::on_kernel_begin(const std::string& name,
                                      std::size_t grid_blocks,
                                      std::size_t resident_limit) {
  kernel_name_ = name;
  resident_limit_ = resident_limit;
  reset_kernel_state();
  clocks_.assign(grid_blocks, VectorClock{});
  current_tile_.assign(grid_blocks, kNoTile);
  for (std::size_t t = 0; t < registered_serials_.size(); ++t)
    graph_.register_serial(t, registered_serials_[t]);
  in_kernel_ = true;
}

void ProtocolChecker::on_kernel_end(bool verify) {
  // Specs and serial registrations apply to exactly one launch. They are
  // taken before any check can throw: a failed launch must leave nothing
  // keyed by its status arrays, which its caller is about to destroy.
  const std::unordered_map<const void*, Spec> specs = std::exchange(specs_, {});
  registered_serials_.clear();
  if (std::exchange(in_kernel_, false) && verify) {
    if (opts_.check_state_machine) verify_state_machines(specs);
    if (opts_.check_schedule) verify_acyclic();
    stats_.kernels_checked += 1;
  }
  // The kernel boundary is a device-wide barrier: every pre-existing access
  // is ordered before every access of the next launch, so all per-kernel
  // race/graph state is discarded (on_kernel_begin discards it too, for a
  // launch whose check threw above).
  reset_kernel_state();
}

void ProtocolChecker::on_tile_claim(BlockId block, std::size_t tile,
                                    std::size_t serial) {
  if (!in_kernel_) return;
  const HbGraph::Tile* known = graph_.find(tile);
  if (known != nullptr && known->claimed) {
    fail("block " + std::to_string(block) + " claimed " + tile_label(tile) +
         " which block " + std::to_string(known->owner) +
         " already owns — a tile must be assigned exactly once");
  }
  if (known != nullptr && known->has_serial && known->serial != serial) {
    fail("block " + std::to_string(block) + " claimed tile " +
         std::to_string(tile) + " with serial " + std::to_string(serial) +
         " but the registered serial is " + std::to_string(known->serial));
  }
  graph_.claim(tile, serial, block);
  if (block < current_tile_.size()) current_tile_[block] = tile;
  stats_.claims += 1;
}

void ProtocolChecker::on_region_write(BlockId block, const void* buf,
                                      const std::string& name,
                                      std::size_t offset, std::size_t count) {
  if (!in_kernel_ || !opts_.check_races) return;
  stats_.region_writes += 1;
  BufState& b = buffers_[buf];
  if (b.name.empty()) b.name = name;
  VectorClock& vc = clock_of(block);
  const Epoch e{block, vc.tick(block)};
  const std::size_t tile =
      block < current_tile_.size() ? current_tile_[block] : kNoTile;
  for (std::size_t i = 0; i < count; ++i) {
    ElemState& el = b.elems[offset + i];
    stats_.elements_checked += 1;
    if (el.has_write && el.write.block != block && !vc.covers(el.write)) {
      fail("race on '" + name + "'[" + std::to_string(offset + i) +
           "]: block " + std::to_string(block) + " (" + tile_label(tile) +
           ") overwrites data written by block " +
           std::to_string(el.write.block) + " (" +
           tile_label(el.writer_tile) +
           ") with no happens-before ordering between the writes");
    }
    for (const Epoch& r : el.reads) {
      if (r.block != block && !vc.covers(r)) {
        fail("race on '" + name + "'[" + std::to_string(offset + i) +
             "]: block " + std::to_string(block) + " (" + tile_label(tile) +
             ") overwrites data concurrently read by block " +
             std::to_string(r.block) +
             " — the read is not ordered before the write");
      }
    }
    el.write = e;
    el.has_write = true;
    el.writer_tile = tile;
    el.reads.clear();
  }
}

void ProtocolChecker::on_region_read(BlockId block, const void* buf,
                                     const std::string& name,
                                     std::size_t offset, std::size_t count) {
  if (!in_kernel_ || !opts_.check_races) return;
  stats_.region_reads += 1;
  BufState& b = buffers_[buf];
  if (b.name.empty()) b.name = name;
  VectorClock& vc = clock_of(block);
  const Epoch e{block, vc.tick(block)};
  const std::size_t tile =
      block < current_tile_.size() ? current_tile_[block] : kNoTile;
  for (std::size_t i = 0; i < count; ++i) {
    ElemState& el = b.elems[offset + i];
    stats_.elements_checked += 1;
    if (el.has_write && el.write.block != block && !vc.covers(el.write)) {
      fail("race on '" + name + "'[" + std::to_string(offset + i) +
           "]: block " + std::to_string(block) + " (" + tile_label(tile) +
           ") reads data written by block " + std::to_string(el.write.block) +
           " (" + tile_label(el.writer_tile) +
           ") without an ordering flag acquire — was the data written after "
           "its guarding flag was published?");
    }
    // Prune reads the new one supersedes (same block, covered epochs).
    std::vector<Epoch> kept;
    kept.reserve(el.reads.size() + 1);
    for (const Epoch& r : el.reads)
      if (r.block != block && !vc.covers(r)) kept.push_back(r);
    kept.push_back(e);
    el.reads = std::move(kept);
  }
}

void ProtocolChecker::on_flag_wait(BlockId block, const StatusArray& arr,
                                   std::size_t idx, std::uint8_t min_value) {
  if (!in_kernel_ || !opts_.check_schedule) return;
  const std::size_t waiter_tile =
      block < current_tile_.size() ? current_tile_[block] : kNoTile;
  if (waiter_tile == kNoTile) return;  // uninstrumented kernel body
  const HbGraph::Tile* self = graph_.find(waiter_tile);
  const HbGraph::Tile* target = graph_.find(idx);
  if (self != nullptr && self->has_serial && target != nullptr &&
      target->has_serial && target->serial >= self->serial) {
    fail("sigma violation: block " + std::to_string(block) + " working on " +
         tile_label(waiter_tile) + " waits for '" + arr.name() + "'[" +
         std::to_string(idx) + "] >= " + u8str(min_value) + ", i.e. on " +
         tile_label(idx) +
         " — look-back dependencies must strictly decrease the serial order "
         "sigma, or limited-residency scheduling can deadlock");
  }
  if (target == nullptr || !target->claimed) {
    fail("unscheduled dependency: block " + std::to_string(block) +
         " working on " + tile_label(waiter_tile) + " waits for '" +
         arr.name() + "'[" + std::to_string(idx) + "] >= " + u8str(min_value) +
         " but no block has claimed " + tile_label(idx) +
         " yet — under a fair scheduler with residency " +
         std::to_string(resident_limit_) +
         " the target may never be resident (deadlock possible)");
  }
  if (graph_.add_edge(waiter_tile, idx)) stats_.wait_edges += 1;
}

void ProtocolChecker::on_flag_publish(BlockId block, const StatusArray& arr,
                                      std::size_t idx, std::uint8_t value) {
  if (!in_kernel_) return;
  stats_.flag_publishes += 1;
  ArrState& a = arr_state(arr);
  CellState& c = a.cells[idx];
  const std::uint8_t actual = arr.cell(idx).value;
  if (actual != c.shadow) {
    fail("corrupted status cell '" + a.name + "'[" + std::to_string(idx) +
         "]: holds " + u8str(actual) + " but the last recorded publish wrote " +
         u8str(c.shadow) + " — the cell was modified out of band");
  }
  if (opts_.check_state_machine) {
    auto sp = specs_.find(&arr);
    if (sp != specs_.end()) {
      const Spec& spec = sp->second;
      bool ok = false;
      for (const Transition& t : spec.allowed)
        if (t.first == c.shadow && t.second == value) ok = true;
      if (!ok) {
        fail("state-machine violation on '" + a.name + "'[" +
             std::to_string(idx) + "] (" + tile_label(idx) + "): block " +
             std::to_string(block) + " publishes transition " +
             u8str(c.shadow) + " -> " + u8str(value) +
             " which the protocol does not allow");
      }
      if (value == spec.terminal) {
        c.terminal_hits += 1;
        if (c.terminal_hits > 1) {
          fail("state-machine violation on '" + a.name + "'[" +
               std::to_string(idx) + "] (" + tile_label(idx) +
               "): terminal state " + u8str(spec.terminal) +
               " reached more than once");
        }
      }
    }
  }
  if (opts_.check_schedule && graph_.claim_count() > 0) {
    const HbGraph::Tile* t = graph_.find(idx);
    if (t == nullptr || !t->claimed) {
      fail("block " + std::to_string(block) + " publishes '" + a.name + "'[" +
           std::to_string(idx) + "] but " + tile_label(idx) +
           " was never claimed by any block");
    } else if (t->owner != block) {
      fail("ownership violation: block " + std::to_string(block) +
           " publishes '" + a.name + "'[" + std::to_string(idx) + "] but " +
           tile_label(idx) + " is owned by block " +
           std::to_string(t->owner));
    }
  }
  // Release: the publisher's whole history becomes visible to any later
  // acquirer of this cell; tick so post-publish work is NOT released.
  VectorClock& vc = clock_of(block);
  c.release.join(vc);
  vc.tick(block);
  c.shadow = value;
  c.last_publisher = block;
  c.has_publish = true;
}

void ProtocolChecker::on_flag_acquire(BlockId block, const StatusArray& arr,
                                      std::size_t idx, std::uint8_t observed) {
  if (!in_kernel_) return;
  stats_.flag_acquires += 1;
  ArrState& a = arr_state(arr);
  CellState& c = a.cells[idx];
  if (observed != c.shadow) {
    fail("block " + std::to_string(block) + " acquired '" + a.name + "'[" +
         std::to_string(idx) + "] observing " + u8str(observed) +
         " but the last recorded publish wrote " + u8str(c.shadow) +
         " — the cell was corrupted out of band");
  }
  clock_of(block).join(c.release);
}

std::string ProtocolChecker::summary() const {
  return "protocol checker: " + std::to_string(stats_.kernels_checked) +
         " kernel(s) verified, " + std::to_string(stats_.claims) +
         " tile claims, " + std::to_string(stats_.wait_edges) +
         " look-back edges, " + std::to_string(stats_.flag_publishes) +
         " publishes / " + std::to_string(stats_.flag_acquires) +
         " acquires, " + std::to_string(stats_.elements_checked) +
         " element accesses race-checked, " +
         std::to_string(stats_.cells_verified) +
         " cells at terminal state";
}

ProtocolChecker::ArrState& ProtocolChecker::arr_state(const StatusArray& arr) {
  ArrState& a = arrays_[&arr];
  if (a.arr == nullptr) {
    a.arr = &arr;
    a.name = arr.name();
  }
  return a;
}

VectorClock& ProtocolChecker::clock_of(BlockId block) {
  if (block >= clocks_.size()) clocks_.resize(block + 1);
  return clocks_[block];
}

std::string ProtocolChecker::tile_label(std::size_t tile) const {
  if (tile == kNoTile) return "no tile";
  std::string s = "tile " + std::to_string(tile);
  const HbGraph::Tile* t = graph_.find(tile);
  if (t != nullptr && t->has_serial)
    s += " (sigma " + std::to_string(t->serial) + ")";
  if (t != nullptr && t->claimed)
    s += " owned by block " + std::to_string(t->owner);
  return s;
}

void ProtocolChecker::fail(const std::string& what) const {
  throw ProtocolError("[protocol] kernel '" + kernel_name_ + "': " + what);
}

void ProtocolChecker::verify_state_machines(
    const std::unordered_map<const void*, Spec>& specs) {
  for (const auto& [key, spec] : specs) {
    ArrState& a = arr_state(*spec.arr);
    for (std::size_t idx = 0; idx < spec.arr->size(); ++idx) {
      const std::uint8_t actual = spec.arr->cell(idx).value;
      const CellState& c = a.cells[idx];
      if (actual != c.shadow) {
        fail("corrupted status cell '" + a.name + "'[" + std::to_string(idx) +
             "] at kernel end: holds " + u8str(actual) +
             " but the last recorded publish wrote " + u8str(c.shadow));
      }
      if (actual != spec.terminal || c.terminal_hits != 1) {
        fail("stuck tile: '" + a.name + "'[" + std::to_string(idx) + "] (" +
             tile_label(idx) + ") ended the kernel in state " + u8str(actual) +
             " after " + std::to_string(c.terminal_hits) +
             " terminal publishes — every tile must reach terminal state " +
             u8str(spec.terminal) + " exactly once");
      }
      stats_.cells_verified += 1;
    }
  }
}

void ProtocolChecker::verify_acyclic() {
  const std::vector<std::size_t> cycle = graph_.find_cycle();
  if (cycle.empty()) return;
  std::string desc;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) desc += " -> ";
    desc += tile_label(cycle[i]);
  }
  fail("dependency cycle among tiles: " + desc +
       " — the look-back graph must be acyclic");
}

void ProtocolChecker::reset_kernel_state() {
  graph_.clear();
  clocks_.clear();
  current_tile_.clear();
  buffers_.clear();
  arrays_.clear();
}

}  // namespace gpusim
