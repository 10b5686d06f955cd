// satmc explorer: exhaustive BFS over the Model's canonical state space.
//
// Classic explicit-state reachability: a flat arena of packed states doubles
// as the BFS queue (states are explored in discovery order), a FNV-1a
// open-addressing table deduplicates canonical representatives, and a
// (parent, worker-slot) record per state reconstructs shortest
// counterexample schedules. Each stored transition is one chosen step plus
// its eager closure (every deterministic-and-invisible step that follows,
// fired immediately — see Model::eager), so chains of forced steps never
// occupy table entries; BFS order then finds a violation via the fewest
// stored transitions, keeping printed traces as short as the bug allows.
//
// Symmetry reduction stores only canonicalize()d states (worker records
// sorted), dividing the space by up to workers!. The recorded worker slot
// of a transition therefore names a *canonical* slot; replay() maps it back
// to a concrete worker with Model::canonical_perm while re-running the
// schedule from the initial state, so printed traces are concrete and
// internally consistent (worker ids persist across steps).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "model.hpp"

namespace satmc {

/// One step of a concrete counterexample schedule.
struct Step {
  std::size_t worker = 0;
  std::string desc;
};

struct Result {
  Verdict verdict = Verdict::kOk;
  std::string detail;             ///< violation description (empty when ok)
  std::size_t states = 0;         ///< canonical states explored
  std::size_t transitions = 0;    ///< transitions fired
  std::vector<Step> trace;        ///< concrete schedule to the violation
  std::vector<BlockedWait> blocked;  ///< parked waits (deadlock verdict)
};

class Explorer {
 public:
  explicit Explorer(const Model& model, bool symmetry = true,
                    std::size_t max_states = 64u << 20)
      : m_(model), symmetry_(symmetry), max_states_(max_states),
        stride_(model.state_size()) {}

  Result run() {
    Result res;
    slots_.assign(1u << 16, 0);
    arena_.clear();
    parent_.clear();
    pworker_.clear();

    std::vector<std::uint8_t> scratch(stride_);
    m_.init(scratch.data());
    if (symmetry_) m_.canonicalize(scratch.data());
    insert(scratch.data(), kNoParent, 0);

    for (std::size_t head = 0; head < count(); ++head) {
      // The arena may grow (and move) while we expand this state; work on a
      // copy of the dequeued representative.
      std::vector<std::uint8_t> cur(arena_.begin() + head * stride_,
                                    arena_.begin() + (head + 1) * stride_);
      if (m_.all_done(cur.data())) {
        std::string detail;
        if (m_.check_terminal(cur.data(), &detail) != Verdict::kOk) {
          const std::size_t transitions = res.transitions;
          res = make_violation(head, -1, Verdict::kIncompleteTerminal);
          res.detail = detail;
          res.transitions = transitions;
          finish(res);
          return res;
        }
        continue;  // clean terminal state: no successors
      }

      bool any_enabled = false;
      for (std::size_t w = 0; w < m_.workers(); ++w) {
        if (!m_.enabled(cur.data(), w)) continue;
        any_enabled = true;
        std::memcpy(scratch.data(), cur.data(), stride_);
        Verdict v = m_.apply(scratch.data(), w, nullptr);
        ++res.transitions;
        // Ample-set reduction, fused into the parent transition: fire every
        // eager step (deterministic, invisible to other workers —
        // Model::eager) right here, so linear chains of them never occupy
        // table entries. Eager steps commute and are confluent, so any
        // firing order reaches the same fixpoint, and make_violation
        // re-derives the chain during replay.
        while (v == Verdict::kOk) {
          std::size_t e = m_.workers();
          for (std::size_t w2 = 0; w2 < m_.workers(); ++w2)
            if (m_.eager(scratch.data(), w2)) {
              e = w2;
              break;
            }
          if (e == m_.workers()) break;
          v = m_.apply(scratch.data(), e, nullptr);
          ++res.transitions;
        }
        if (v != Verdict::kOk) {
          const std::size_t transitions = res.transitions;
          res = make_violation(head, static_cast<int>(w), v);
          res.transitions = transitions;
          finish(res);
          return res;
        }
        if (symmetry_) m_.canonicalize(scratch.data());
        if (insert(scratch.data(), static_cast<std::uint32_t>(head),
                   static_cast<std::uint8_t>(w)) &&
            count() > max_states_) {
          res.verdict = Verdict::kIncompleteTerminal;
          res.detail = "state-space cap of " + std::to_string(max_states_) +
                       " states exceeded";
          finish(res);
          return res;
        }
      }
      if (!any_enabled) {
        const std::size_t transitions = res.transitions;
        res = make_violation(head, -1, Verdict::kDeadlock);
        res.transitions = transitions;
        finish(res);
        return res;
      }
    }
    finish(res);
    return res;
  }

 private:
  [[nodiscard]] std::size_t count() const { return parent_.size(); }

  void finish(Result& res) const {
    res.states = count();
    if (res.detail.empty() && res.verdict != Verdict::kOk &&
        !res.trace.empty())
      res.detail = res.trace.back().desc;
  }

  static std::uint64_t hash_bytes(const std::uint8_t* p, std::size_t n) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// Appends the state (with its BFS parent record) if unseen. Returns true
  /// when the state is new.
  bool insert(const std::uint8_t* s, std::uint32_t parent, std::uint8_t w) {
    if (2 * (count() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = hash_bytes(s, stride_) & mask;
    while (slots_[at] != 0) {
      const std::size_t idx = slots_[at] - 1;
      if (std::memcmp(arena_.data() + idx * stride_, s, stride_) == 0)
        return false;
      at = (at + 1) & mask;
    }
    const std::size_t idx = count();
    arena_.insert(arena_.end(), s, s + stride_);
    parent_.push_back(parent);
    pworker_.push_back(w);
    slots_[at] = static_cast<std::uint32_t>(idx + 1);
    return true;
  }

  void grow() {
    std::vector<std::uint32_t> fresh(slots_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (std::size_t idx = 0; idx < count(); ++idx) {
      std::size_t at =
          hash_bytes(arena_.data() + idx * stride_, stride_) & mask;
      while (fresh[at] != 0) at = (at + 1) & mask;
      fresh[at] = static_cast<std::uint32_t>(idx + 1);
    }
    slots_.swap(fresh);
  }

  /// Builds the concrete schedule reaching canonical state `state_idx`,
  /// optionally firing one more transition on canonical slot `final_slot`
  /// (the violating step; −1 for deadlock/terminal verdicts where the state
  /// itself is the witness).
  Result make_violation(std::size_t state_idx, int final_slot, Verdict v) {
    Result res;
    res.verdict = v;

    std::vector<std::pair<std::size_t, std::uint8_t>> chain;
    for (std::size_t idx = state_idx; parent_[idx] != kNoParent;
         idx = parent_[idx])
      chain.emplace_back(parent_[idx], pworker_[idx]);
    std::reverse(chain.begin(), chain.end());

    std::vector<std::uint8_t> c(stride_);
    m_.init(c.data());
    std::vector<std::size_t> perm(m_.workers());
    auto concrete_worker = [&](std::uint8_t slot) {
      if (!symmetry_) return static_cast<std::size_t>(slot);
      m_.canonical_perm(c.data(), perm.data());
      return perm[slot];
    };

    // Each recorded transition is "apply(slot), then the eager closure" —
    // re-derive the closure chain here so the printed schedule lists every
    // concrete step. Closure steps commute, so the (deterministic) concrete
    // firing order reaching the same fixpoint need not match exploration's.
    const auto close_eager = [&]() -> Verdict {
      for (;;) {
        std::size_t e = m_.workers();
        for (std::size_t w = 0; w < m_.workers(); ++w)
          if (m_.eager(c.data(), w)) {
            e = w;
            break;
          }
        if (e == m_.workers()) return Verdict::kOk;
        Step step;
        step.worker = e;
        const Verdict cv = m_.apply(c.data(), e, &step.desc);
        res.trace.push_back(std::move(step));
        if (cv != Verdict::kOk) return cv;
      }
    };

    for (const auto& [pidx, slot] : chain) {
      (void)pidx;
      const std::size_t w = concrete_worker(slot);
      Step step;
      step.worker = w;
      m_.apply(c.data(), w, &step.desc);
      res.trace.push_back(std::move(step));
      close_eager();
    }
    if (final_slot >= 0) {
      const std::size_t w =
          concrete_worker(static_cast<std::uint8_t>(final_slot));
      Step step;
      step.worker = w;
      Verdict fv = m_.apply(c.data(), w, &step.desc);
      res.trace.push_back(std::move(step));
      // When the recorded step itself succeeded, the violation was found
      // inside its eager closure; every worker's eager chain is
      // deterministic, so replaying the closure hits it again.
      if (fv == Verdict::kOk) fv = close_eager();
      res.detail = res.trace.back().desc;
    }
    if (v == Verdict::kDeadlock) {
      std::string blocked_desc = "all live workers blocked:";
      for (std::size_t w = 0; w < m_.workers(); ++w) {
        if (m_.phase(c.data(), w) == Phase::kDone) continue;
        if (m_.phase(c.data(), w) == Phase::kRowWalk ||
            m_.phase(c.data(), w) == Phase::kColWalk ||
            m_.phase(c.data(), w) == Phase::kDiagWalk) {
          const BlockedWait bw = m_.wait_of(c.data(), w);
          res.blocked.push_back(bw);
          blocked_desc += " w" + std::to_string(w) + " waits " + bw.axis +
                          "[" + std::to_string(bw.tile) +
                          "] >= " + std::to_string(bw.want) + ";";
        } else {
          // A non-walk phase is always enabled; a deadlock can only park
          // workers on waits, but keep the report honest if that changes.
          blocked_desc +=
              " w" + std::to_string(w) + " stuck in " +
              phase_name(m_.phase(c.data(), w)) + ";";
        }
      }
      res.detail = blocked_desc;
    }
    return res;
  }

  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  const Model& m_;
  bool symmetry_;
  std::size_t max_states_;
  std::size_t stride_;
  std::vector<std::uint8_t> arena_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> pworker_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace satmc
