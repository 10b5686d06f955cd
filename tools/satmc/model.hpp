// satmc model: the host 1R1W-SKSS-LB look-back protocol as an explicit
// finite transition system.
//
// This is an *independent* encoding of the paper's §IV protocol — it
// deliberately does not include src/host/lookback.hpp or sat_skss_lb.hpp, so
// the conformance extractor (tools/satmc/conformance.py) can cross-check the
// real headers against the model's declarations and catch silent drift in
// either direction. The only shared code is the tile geometry
// (satalgo::TileGrid), so the model walks exactly the σ serial order the
// engine walks.
//
// State = (σ claim counter) × (per-worker program counter) × (per-tile flag
// pair + published-value lattice). Transitions are the protocol's *visible*
// steps — claims, flag publishes, look-back waits — with two sound
// reductions that keep 4×4 grids with 4 workers exhaustively checkable:
//
// 1. Step fusion (Lipton reduction for monotone one-shot flags). A step
//    fuses one read/decision prefix with the publishes that follow it
//    unconditionally: the fast-path check with its terminal publishes, the
//    slow-path check with the LRS/LCS publishes, and each walk's final
//    observe with the entire read-free publish chain behind it (GRS after
//    the row walk, GCS/GLS after the column walk, GS + dst after the
//    diagonal walk — chaining straight through when the next walk has zero
//    length). Every read in a fused step happens at the step's
//    start, each inner publish still checks strict monotonicity, and a
//    release drains the store buffer at the *first* releasing publish — so
//    the values another worker could read between the fused publishes are
//    exactly the values it reads after them (flags are monotone and values
//    write-once). The only behaviors the fusion removes are ones where
//    another worker observes a strict prefix of the publishes, and for this
//    protocol such an observer either reads the same value it would read
//    after the full step (its gating flag was already raised) or merely
//    waits longer (its gating flag rises later in the step) — a delay, not
//    a new outcome. Deadlocks are preserved too: mid-step states always
//    have the publishing worker enabled.
//
// 2. The fast-path predicate reads three flags in one transition where the
//    code issues three acquire loads. Flags are monotone, so a sequential
//    evaluation that succeeds implies all three thresholds hold at the last
//    load, and one that fails does so at a specific load — a state this
//    model also reaches by firing the check at that instant.
//
// (A third reduction — firing outcome-deterministic walk observes eagerly —
// lives in the explorer; see Model::eager.)
//
// Release/acquire is modeled with a per-value visibility lattice
// UNWRITTEN → LOCAL → VISIBLE: a worker's writes land as LOCAL (its store
// buffer), any release-publish by that worker promotes its pending writes to
// VISIBLE, and every cross-tile read asserts VISIBLE. A publish mutated to
// relaxed skips the promotion, so a reader that trusts the flag trips the
// read-before-release invariant — the model's rendering of "the flag passed
// the data on weakly ordered hardware".
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "sat/tiles.hpp"

namespace satmc {

// Flag lattices, independent re-declaration of the paper's Table II states
// (cross-checked against sathost::hflag by the conformance extractor).
namespace flag {
inline constexpr std::uint8_t kLrs = 1;
inline constexpr std::uint8_t kGrs = 2;
inline constexpr std::uint8_t kGls = 3;
inline constexpr std::uint8_t kGs = 4;
inline constexpr std::uint8_t kLcs = 1;
inline constexpr std::uint8_t kGcs = 2;
}  // namespace flag

/// Published per-tile quantities (Table II). Order is the value-lattice bit
/// layout in the packed state.
enum Value : std::uint8_t {
  kValLrs = 0,
  kValLcs = 1,
  kValGrs = 2,
  kValGcs = 3,
  kValGls = 4,
  kValGs = 5,
  kValCount = 6,
};

inline const char* value_name(std::uint8_t v) {
  static const char* names[kValCount] = {"LRS", "LCS", "GRS",
                                         "GCS", "GLS", "GS"};
  return v < kValCount ? names[v] : "?";
}

/// Visibility lattice of one published value.
enum Vis : std::uint8_t {
  kUnwritten = 0,  ///< never stored
  kLocal = 1,      ///< stored, still in the writer's store buffer
  kVisible = 2,    ///< released — an acquiring reader sees it
};

/// Worker program counter: one value per fused visible step of the worker
/// lambda in src/host/sat_skss_lb.hpp (see file comment for the fusion
/// argument).
enum class Phase : std::uint8_t {
  kClaim = 0,  ///< about to fetch_add the σ counter
  kCheckFast,  ///< peek the 3 predecessors; fast: read + publish terminals;
               ///< slow: compute local SAT, publish LRS + LCS
  kRowWalk,    ///< wait R[left−k] ≥ LRS, read its LRS/GRS
  kPubGrs,     ///< publish R := GRS
  kColWalk,    ///< wait C[up−k] ≥ LCS, read its LCS/GCS
  kPubGcsGls,  ///< publish C := GCS, then R := GLS
  kDiagWalk,   ///< wait R[diag−k] ≥ GLS, read its GLS/GS
  kPubGs,      ///< publish R := GS, store the tile to dst → kClaim
  kDone,       ///< worker exited (σ exhausted)
};

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kClaim: return "claim";
    case Phase::kCheckFast: return "check-fast";
    case Phase::kRowWalk: return "row-walk";
    case Phase::kPubGrs: return "pub-R:GRS";
    case Phase::kColWalk: return "col-walk";
    case Phase::kPubGcsGls: return "pub-C:GCS-R:GLS";
    case Phase::kDiagWalk: return "diag-walk";
    case Phase::kPubGs: return "pub-R:GS";
    case Phase::kDone: return "done";
  }
  return "?";
}

/// Seeded protocol bugs. Each must drive the clean-model invariants to a
/// counterexample — the checker's own mutation test suite.
enum class Mutation : std::uint8_t {
  kNone = 0,
  /// Publish the LRS/LCS flags *before* the local sums are written (the
  /// data lands only at the GRS publish). A row-walking neighbor that
  /// trusts the flag reads an unwritten LRS.
  kFlagBeforeData,
  /// The σ counter hands serials out in *decreasing* order. Look-back
  /// dependencies then point at tiles claimed after the waiter; with fewer
  /// workers than tiles every worker ends up blocked on an unclaimed tile.
  kSigmaInversion,
  /// The GRS publish loses its release. The flag becomes observable while
  /// GRS is still in the writer's store buffer; the next row-walker reads a
  /// value no release edge ever made visible.
  kDroppedRelease,
};

inline const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kFlagBeforeData: return "flag-before-data";
    case Mutation::kSigmaInversion: return "sigma-order-inversion";
    case Mutation::kDroppedRelease: return "dropped-release";
  }
  return "?";
}

/// What a transition (or terminal check) can report.
enum class Verdict : std::uint8_t {
  kOk = 0,
  kDeadlock,            ///< live workers, no enabled transition
  kMonotonicity,        ///< a publish did not strictly raise the flag
  kReadUnwritten,       ///< read of a value nobody stored
  kReadUnreleased,      ///< read of a value no release edge published
  kDstRewrite,          ///< a tile's dst region stored twice
  kIncompleteTerminal,  ///< all workers exited with protocol state left over
};

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kDeadlock: return "deadlock";
    case Verdict::kMonotonicity: return "flag-monotonicity-violation";
    case Verdict::kReadUnwritten: return "read-before-write";
    case Verdict::kReadUnreleased: return "read-before-release";
    case Verdict::kDstRewrite: return "dst-double-store";
    case Verdict::kIncompleteTerminal: return "sigma-progress-violation";
  }
  return "?";
}

/// A blocked wait, for deadlock diagnostics and the dynamic replay test.
struct BlockedWait {
  std::size_t worker = 0;
  char axis = 'R';        ///< 'R' or 'C' status array
  std::size_t tile = 0;   ///< row-major tile index
  std::uint8_t want = 0;  ///< wait threshold
};

/// The transition system for one (g_rows × g_cols tiles, nworkers) config.
///
/// Packed state layout (state_size() bytes):
///   [0]                       σ claim counter (number of grants)
///   [1 + 3w .. 1 + 3w + 2]    worker w: phase, serial (0xFF = none), walk k
///   [base_t + 3t .. +2]       tile t: flags byte (R | C<<3 | dst<<6),
///                             value lattice (6 values × 2 bits, LE u16)
///
/// Workers are symmetric: no transition reads a worker index, so permuting
/// the worker records of any reachable state yields a reachable state with
/// the same future. canonicalize() sorts the records; the explorer stores
/// only canonical representatives.
class Model {
 public:
  Model(std::size_t g_rows, std::size_t g_cols, std::size_t nworkers,
        Mutation mutation = Mutation::kNone)
      : grid_(g_rows, g_cols, 1), nw_(nworkers), mut_(mutation) {}

  [[nodiscard]] std::size_t workers() const { return nw_; }
  [[nodiscard]] std::size_t tiles() const { return grid_.count(); }
  [[nodiscard]] const satalgo::TileGrid& grid() const { return grid_; }
  [[nodiscard]] Mutation mutation() const { return mut_; }

  [[nodiscard]] std::size_t state_size() const {
    return 1 + 3 * nw_ + 3 * grid_.count();
  }

  void init(std::uint8_t* s) const {
    std::fill(s, s + state_size(), std::uint8_t{0});
    for (std::size_t w = 0; w < nw_; ++w) wserial(s, w) = 0xFF;
  }

  // ── state accessors ──────────────────────────────────────────────────
  [[nodiscard]] std::uint8_t sigma(const std::uint8_t* s) const {
    return s[0];
  }
  [[nodiscard]] Phase phase(const std::uint8_t* s, std::size_t w) const {
    return static_cast<Phase>(s[1 + 3 * w]);
  }
  [[nodiscard]] std::uint8_t r_flag(const std::uint8_t* s,
                                    std::size_t t) const {
    return tflags(s, t) & 0x7;
  }
  [[nodiscard]] std::uint8_t c_flag(const std::uint8_t* s,
                                    std::size_t t) const {
    return (tflags(s, t) >> 3) & 0x3;
  }
  [[nodiscard]] bool dst_written(const std::uint8_t* s, std::size_t t) const {
    return (tflags(s, t) >> 6) & 0x1;
  }
  [[nodiscard]] Vis vis(const std::uint8_t* s, std::size_t t,
                        std::uint8_t val) const {
    const std::size_t base = tile_base(t) + 1;
    const std::uint16_t packed =
        static_cast<std::uint16_t>(s[base] | (s[base + 1] << 8));
    return static_cast<Vis>((packed >> (2 * val)) & 0x3);
  }

  [[nodiscard]] bool all_done(const std::uint8_t* s) const {
    for (std::size_t w = 0; w < nw_; ++w)
      if (phase(s, w) != Phase::kDone) return false;
    return true;
  }

  [[nodiscard]] static bool is_walk(Phase p) {
    return p == Phase::kRowWalk || p == Phase::kColWalk ||
           p == Phase::kDiagWalk;
  }

  /// Worker `w` can fire its next transition in `s`. Only the three walk
  /// phases ever block (on their predecessor's flag); kDone is final.
  [[nodiscard]] bool enabled(const std::uint8_t* s, std::size_t w) const {
    switch (phase(s, w)) {
      case Phase::kDone:
        return false;
      case Phase::kRowWalk:
      case Phase::kColWalk:
      case Phase::kDiagWalk: {
        const BlockedWait bw = wait_of(s, w);
        const std::uint8_t cur =
            bw.axis == 'R' ? r_flag(s, bw.tile) : c_flag(s, bw.tile);
        return cur >= bw.want;
      }
      default:
        return true;
    }
  }

  /// Ample-set reduction hook: true when worker `w`'s next transition is
  /// outcome-deterministic and invisible to every other worker, so the
  /// explorer fires it immediately, fused into whatever transition exposed
  /// it (closure compression). Two cases:
  ///
  ///   * a walk observe whose predecessor flag already reached the GLOBAL
  ///     threshold with the global value released — the branch is fixed,
  ///     the value read is fixed and permanently visible (flags monotone,
  ///     values write-once), and the step touches only `w`'s own record;
  ///   * the exit step once σ is exhausted (σ never decreases).
  ///
  /// Such a transition commutes with every transition of every other
  /// worker, stays enabled forever, and cannot be part of a cycle (the
  /// whole system is acyclic: each step strictly advances a progress
  /// measure), so pruning the siblings loses no reachable violation.
  ///
  /// The observe case is gated on the *clean* model: a stopping observe
  /// fuses into the publish chain behind it, and pruning interleavings
  /// against those publishes is delay-equivalent only while the protocol's
  /// release discipline holds (file comment, reduction 1). A mutation
  /// breaks exactly that premise — e.g. dropped-release's witness is the
  /// window between the relaxed GRS publish and the publisher's next
  /// release, which the closure would fuse away. The exit case touches
  /// only the worker's own record and stays eager unconditionally.
  [[nodiscard]] bool eager(const std::uint8_t* s, std::size_t w) const {
    const Phase p = phase(s, w);
    if (p == Phase::kClaim) return s[0] >= tiles();
    if (mut_ != Mutation::kNone) return false;
    if (!is_walk(p)) return false;
    const BlockedWait bw = wait_of(s, w);
    const std::uint8_t cur =
        bw.axis == 'R' ? r_flag(s, bw.tile) : c_flag(s, bw.tile);
    const auto [global_state, global_val] = walk_global(p);
    return cur >= global_state && vis(s, bw.tile, global_val) == kVisible;
  }

  /// The wait a walk-phase worker is parked on (valid only for walk phases).
  [[nodiscard]] BlockedWait wait_of(const std::uint8_t* s,
                                    std::size_t w) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    const std::uint8_t k = wwalk(s, w);
    BlockedWait bw;
    bw.worker = w;
    switch (phase(s, w)) {
      case Phase::kRowWalk:
        bw.axis = 'R';
        bw.tile = grid_.idx(ti, tj - 1 - k);
        bw.want = flag::kLrs;
        break;
      case Phase::kColWalk:
        bw.axis = 'C';
        bw.tile = grid_.idx(ti - 1 - k, tj);
        bw.want = flag::kLcs;
        break;
      case Phase::kDiagWalk:
        bw.axis = 'R';
        bw.tile = grid_.idx(ti - 1 - k, tj - 1 - k);
        bw.want = flag::kGls;
        break;
      default:
        break;
    }
    return bw;
  }

  /// Fires worker `w`'s next transition in place. Must only be called when
  /// enabled(s, w). Returns the first invariant violation, if any; when
  /// `desc` is non-null it receives a human-readable line for the schedule
  /// printout (filled for kOk steps too).
  Verdict apply(std::uint8_t* s, std::size_t w, std::string* desc) const {
    switch (phase(s, w)) {
      case Phase::kClaim: {
        if (s[0] >= tiles()) {
          set_phase(s, w, Phase::kDone);
          note(desc, w, "exits (sigma exhausted)");
          return Verdict::kOk;
        }
        const std::uint8_t grant = s[0]++;
        const std::uint8_t serial =
            mut_ == Mutation::kSigmaInversion
                ? static_cast<std::uint8_t>(tiles() - 1 - grant)
                : grant;
        wserial(s, w) = serial;
        set_phase(s, w, Phase::kCheckFast);
        if (desc != nullptr) {
          const auto [ti, tj] = grid_.tile_of_serial(serial);
          char buf[96];
          std::snprintf(buf, sizeof buf,
                        "claims serial %u -> tile (%zu,%zu)", serial, ti, tj);
          note(desc, w, buf);
        }
        return Verdict::kOk;
      }

      case Phase::kCheckFast: {
        const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
        const std::size_t self = grid_.idx(ti, tj);
        const std::size_t left = tj > 0 ? grid_.idx(ti, tj - 1) : 0;
        const std::size_t up = ti > 0 ? grid_.idx(ti - 1, tj) : 0;
        const std::size_t diag =
            (ti > 0 && tj > 0) ? grid_.idx(ti - 1, tj - 1) : 0;
        const bool fast = (tj == 0 || r_flag(s, left) >= flag::kGrs) &&
                          (ti == 0 || c_flag(s, up) >= flag::kGcs) &&
                          (ti == 0 || tj == 0 || r_flag(s, diag) >= flag::kGs);
        if (fast) {
          // Fused fast path: read the three GLOBAL prefixes, write every
          // own quantity and dst, publish both terminal flags.
          note(desc, w, "finds all predecessors GLOBAL -> fast path, "
                        "publishes R:=GS, C:=GCS");
          if (tj > 0)
            if (Verdict v = read(s, left, kValGrs, w, desc); v != Verdict::kOk)
              return v;
          if (ti > 0)
            if (Verdict v = read(s, up, kValGcs, w, desc); v != Verdict::kOk)
              return v;
          if (ti > 0 && tj > 0)
            if (Verdict v = read(s, diag, kValGs, w, desc); v != Verdict::kOk)
              return v;
          write_local(s, self, kValGrs);
          write_local(s, self, kValGcs);
          write_local(s, self, kValGs);
          if (Verdict v = store_dst(s, self, w, desc); v != Verdict::kOk)
            return v;
          if (Verdict v = publish(s, w, 'R', flag::kGs, true, desc);
              v != Verdict::kOk)
            return v;
          if (Verdict v = publish(s, w, 'C', flag::kGcs, true, desc);
              v != Verdict::kOk)
            return v;
          wserial(s, w) = 0xFF;
          set_phase(s, w, Phase::kClaim);
        } else {
          // Fused slow-path entry: compute the local SAT (LRS/LCS land in
          // the store buffer — unless the mutation defers them past the
          // flags), publish LRS then LCS, enter the row walk.
          note(desc, w, "finds predecessors incomplete -> look-back path, "
                        "publishes R:=LRS, C:=LCS");
          if (mut_ != Mutation::kFlagBeforeData) {
            write_local(s, self, kValLrs);
            write_local(s, self, kValLcs);
          }
          if (Verdict v = publish(s, w, 'R', flag::kLrs, true, desc);
              v != Verdict::kOk)
            return v;
          if (Verdict v = publish(s, w, 'C', flag::kLcs, true, desc);
              v != Verdict::kOk)
            return v;
          wwalk(s, w) = 0;
          set_phase(s, w, tj > 0 ? Phase::kRowWalk : Phase::kPubGrs);
        }
        return Verdict::kOk;
      }

      case Phase::kRowWalk:
        return walk_step(s, w, Phase::kPubGrs, desc);

      case Phase::kColWalk:
        return walk_step(s, w, Phase::kPubGcsGls, desc);

      case Phase::kDiagWalk:
        return walk_step(s, w, Phase::kPubGs, desc);

      case Phase::kPubGrs:
      case Phase::kPubGcsGls:
      case Phase::kPubGs:
        return run_publishes(s, w, desc);

      case Phase::kDone:
        break;
    }
    return Verdict::kOk;
  }

  /// σ-progress: when every worker has exited, every serial must have been
  /// claimed, every tile must sit at its terminal flags with its published
  /// values visible, and every dst region must be stored exactly once.
  Verdict check_terminal(const std::uint8_t* s, std::string* desc) const {
    if (s[0] != tiles()) {
      if (desc != nullptr)
        *desc = "all workers exited with unclaimed serials (sigma=" +
                std::to_string(s[0]) + " of " + std::to_string(tiles()) + ")";
      return Verdict::kIncompleteTerminal;
    }
    for (std::size_t t = 0; t < tiles(); ++t) {
      const bool ok = r_flag(s, t) == flag::kGs &&
                      c_flag(s, t) == flag::kGcs && dst_written(s, t) &&
                      vis(s, t, kValGs) == kVisible;
      if (!ok) {
        if (desc != nullptr)
          *desc = "tile " + std::to_string(t) +
                  " not retired at termination (R=" +
                  std::to_string(r_flag(s, t)) +
                  " C=" + std::to_string(c_flag(s, t)) +
                  " dst=" + (dst_written(s, t) ? "1" : "0") + ")";
        return Verdict::kIncompleteTerminal;
      }
    }
    return Verdict::kOk;
  }

  /// Sorts the worker records so symmetric states share one representative.
  void canonicalize(std::uint8_t* s) const {
    std::array<std::array<std::uint8_t, 3>, 16> recs;
    for (std::size_t w = 0; w < nw_; ++w)
      std::copy(s + 1 + 3 * w, s + 1 + 3 * w + 3, recs[w].begin());
    std::sort(recs.begin(), recs.begin() + nw_);
    for (std::size_t w = 0; w < nw_; ++w)
      std::copy(recs[w].begin(), recs[w].end(), s + 1 + 3 * w);
  }

  /// Stable permutation that canonicalize() would apply: perm[slot] = the
  /// worker index currently holding what ends up at canonical `slot`. Used
  /// to replay a canonical trace against a concrete state.
  void canonical_perm(const std::uint8_t* s, std::size_t* perm) const {
    for (std::size_t w = 0; w < nw_; ++w) perm[w] = w;
    std::stable_sort(perm, perm + nw_, [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(s + 1 + 3 * a, s + 1 + 3 * a + 3,
                                          s + 1 + 3 * b, s + 1 + 3 * b + 3);
    });
  }

 private:
  [[nodiscard]] std::size_t tile_base(std::size_t t) const {
    return 1 + 3 * nw_ + 3 * t;
  }
  [[nodiscard]] std::uint8_t tflags(const std::uint8_t* s,
                                    std::size_t t) const {
    return s[tile_base(t)];
  }
  [[nodiscard]] std::uint8_t& wserial(std::uint8_t* s, std::size_t w) const {
    return s[1 + 3 * w + 1];
  }
  [[nodiscard]] std::uint8_t wserial(const std::uint8_t* s,
                                     std::size_t w) const {
    return s[1 + 3 * w + 1];
  }
  [[nodiscard]] std::uint8_t& wwalk(std::uint8_t* s, std::size_t w) const {
    return s[1 + 3 * w + 2];
  }
  [[nodiscard]] std::uint8_t wwalk(const std::uint8_t* s,
                                   std::size_t w) const {
    return s[1 + 3 * w + 2];
  }
  void set_phase(std::uint8_t* s, std::size_t w, Phase p) const {
    s[1 + 3 * w] = static_cast<std::uint8_t>(p);
  }

  /// (GLOBAL flag threshold, GLOBAL value) of a walk phase.
  [[nodiscard]] static std::pair<std::uint8_t, std::uint8_t> walk_global(
      Phase p) {
    switch (p) {
      case Phase::kRowWalk: return {flag::kGrs, kValGrs};
      case Phase::kColWalk: return {flag::kGcs, kValGcs};
      default: return {flag::kGs, kValGs};  // kDiagWalk
    }
  }

  /// (LOCAL value, walk length) of worker w's walk phase.
  [[nodiscard]] std::pair<std::uint8_t, std::size_t> walk_local(
      const std::uint8_t* s, std::size_t w) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    switch (phase(s, w)) {
      case Phase::kRowWalk: return {kValLrs, tj};
      case Phase::kColWalk: return {kValLcs, ti};
      default: return {kValGls, std::min(ti, tj)};  // kDiagWalk
    }
  }

  void set_vis(std::uint8_t* s, std::size_t t, std::uint8_t val,
               Vis v) const {
    const std::size_t base = tile_base(t) + 1;
    std::uint16_t packed =
        static_cast<std::uint16_t>(s[base] | (s[base + 1] << 8));
    packed = static_cast<std::uint16_t>(
        (packed & ~(0x3u << (2 * val))) |
        (static_cast<std::uint16_t>(v) << (2 * val)));
    s[base] = static_cast<std::uint8_t>(packed & 0xFF);
    s[base + 1] = static_cast<std::uint8_t>(packed >> 8);
  }

  void write_local(std::uint8_t* s, std::size_t t, std::uint8_t val) const {
    if (vis(s, t, val) == kUnwritten) set_vis(s, t, val, kLocal);
  }

  /// An acquiring cross-tile read of `val` of tile `t` by worker `w`.
  Verdict read(std::uint8_t* s, std::size_t t, std::uint8_t val,
               std::size_t w, std::string* desc) const {
    const Vis v = vis(s, t, val);
    if (v == kVisible) return Verdict::kOk;
    if (desc != nullptr) {
      const auto [ti, tj] = tile_rc(t);
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "reads %s of tile (%zu,%zu) which is %s",
                    value_name(val), ti, tj,
                    v == kUnwritten ? "not yet written"
                                    : "written but never released");
      note(desc, w, buf);
    }
    return v == kUnwritten ? Verdict::kReadUnwritten
                           : Verdict::kReadUnreleased;
  }

  Verdict store_dst(std::uint8_t* s, std::size_t t, std::size_t w,
                    std::string* desc) const {
    if (dst_written(s, t)) {
      if (desc != nullptr) note(desc, w, "stores an already-stored dst tile");
      return Verdict::kDstRewrite;
    }
    s[tile_base(t)] |= std::uint8_t{1} << 6;
    return Verdict::kOk;
  }

  /// Publishes `state` on axis `axis` of worker `w`'s own tile and — when
  /// `release` — drains the worker's store buffer (promotes its tile's
  /// kLocal values to kVisible).
  Verdict publish(std::uint8_t* s, std::size_t w, char axis,
                  std::uint8_t state, bool release, std::string* desc) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    const std::size_t self = grid_.idx(ti, tj);
    const std::uint8_t cur =
        axis == 'R' ? r_flag(s, self) : c_flag(s, self);
    if (state <= cur) {
      if (desc != nullptr) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "publishes %c[(%zu,%zu)] := %u over %u -- flag did "
                      "not rise (monotonicity)",
                      axis, ti, tj, state, cur);
        note(desc, w, buf);
      }
      return Verdict::kMonotonicity;
    }
    std::uint8_t f = tflags(s, self);
    if (axis == 'R')
      f = static_cast<std::uint8_t>((f & ~0x7u) | state);
    else
      f = static_cast<std::uint8_t>((f & ~(0x3u << 3)) | (state << 3));
    s[tile_base(self)] = static_cast<std::uint8_t>(
        f | (tflags(s, self) & (std::uint8_t{1} << 6)));
    if (release)
      for (std::uint8_t v = 0; v < kValCount; ++v)
        if (vis(s, self, v) == kLocal) set_vis(s, self, v, kVisible);
    return Verdict::kOk;
  }

  /// One look-back observe: the caller guaranteed flag ≥ local threshold.
  /// Branch on the snapshot exactly like lookback_accumulate: at or above
  /// the GLOBAL state read the global vector and stop; otherwise read the
  /// local vector and keep walking until the border terminates the walk.
  Verdict walk_step(std::uint8_t* s, std::size_t w, Phase stop_phase,
                    std::string* desc) const {
    const BlockedWait bw = wait_of(s, w);
    const std::uint8_t seen =
        bw.axis == 'R' ? r_flag(s, bw.tile) : c_flag(s, bw.tile);
    const auto [global_state, global_val] = walk_global(phase(s, w));
    const auto [local_val, steps] = walk_local(s, w);
    const bool global = seen >= global_state;
    if (desc != nullptr) {
      const auto [pi, pj] = tile_rc(bw.tile);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "look-back observes %c[(%zu,%zu)] = %u, takes %s %s",
                    bw.axis, pi, pj, seen, global ? "GLOBAL" : "LOCAL",
                    value_name(global ? global_val : local_val));
      note(desc, w, buf);
    }
    if (Verdict v = read(s, bw.tile, global ? global_val : local_val, w, desc);
        v != Verdict::kOk)
      return v;
    if (global || wwalk(s, w) + 1u >= steps) {
      // The walk is over; the publish chain that follows it is
      // unconditional and read-free, so it fuses into this observe
      // (file comment, reduction 1).
      set_phase(s, w, stop_phase);
      wwalk(s, w) = 0;
      return run_publishes(s, w, desc);
    }
    ++wwalk(s, w);
    return Verdict::kOk;
  }

  /// Executes worker `w`'s pending publish phases (kPubGrs, kPubGcsGls,
  /// kPubGs) back-to-back until the worker reaches a blocking walk or
  /// returns to kClaim. Sound as a single transition: the chained phases
  /// contain no cross-tile reads — only same-tile value writes and monotone
  /// flag publishes — so an observer sees either none or all of them, and
  /// anything it could do in between it can still do after (see the fusion
  /// argument in the file comment).
  Verdict run_publishes(std::uint8_t* s, std::size_t w,
                        std::string* desc) const {
    std::string segs;
    char buf[96];
    const auto seg = [&](const char* what) {
      if (desc == nullptr) return;
      if (!segs.empty()) segs += ", then ";
      segs += what;
    };
    for (;;) {
      const Phase p = phase(s, w);
      if (p != Phase::kPubGrs && p != Phase::kPubGcsGls &&
          p != Phase::kPubGs) {
        if (desc != nullptr && !segs.empty()) {
          if (desc->empty())
            *desc = "w" + std::to_string(w) + " " + segs;
          else
            *desc += "; " + segs;
        }
        return Verdict::kOk;
      }
      const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
      const std::size_t self = grid_.idx(ti, tj);
      switch (p) {
        case Phase::kPubGrs: {
          if (mut_ == Mutation::kFlagBeforeData) {
            // The deferred local compute finally lands — long after the
            // LRS/LCS flags told the world it was there.
            write_local(s, self, kValLrs);
            write_local(s, self, kValLcs);
          }
          write_local(s, self, kValGrs);
          const bool release = mut_ != Mutation::kDroppedRelease;
          std::snprintf(buf, sizeof buf, "publishes R[(%zu,%zu)] := GRS (%s)",
                        ti, tj, release ? "release" : "RELAXED");
          seg(buf);
          if (Verdict v = publish(s, w, 'R', flag::kGrs, release, desc);
              v != Verdict::kOk)
            return v;
          wwalk(s, w) = 0;
          set_phase(s, w, ti > 0 ? Phase::kColWalk : Phase::kPubGcsGls);
          break;
        }

        case Phase::kPubGcsGls: {
          write_local(s, self, kValGcs);
          write_local(s, self, kValGls);
          std::snprintf(buf, sizeof buf,
                        "publishes C[(%zu,%zu)] := GCS, R[(%zu,%zu)] := GLS",
                        ti, tj, ti, tj);
          seg(buf);
          if (Verdict v = publish(s, w, 'C', flag::kGcs, true, desc);
              v != Verdict::kOk)
            return v;
          if (Verdict v = publish(s, w, 'R', flag::kGls, true, desc);
              v != Verdict::kOk)
            return v;
          wwalk(s, w) = 0;
          set_phase(s, w,
                    (ti > 0 && tj > 0) ? Phase::kDiagWalk : Phase::kPubGs);
          break;
        }

        case Phase::kPubGs: {
          write_local(s, self, kValGs);
          std::snprintf(buf, sizeof buf,
                        "publishes R[(%zu,%zu)] := GS, stores dst tile", ti,
                        tj);
          seg(buf);
          if (Verdict v = publish(s, w, 'R', flag::kGs, true, desc);
              v != Verdict::kOk)
            return v;
          // The single store to dst (worker-local; fused here).
          if (Verdict dv = store_dst(s, self, w, desc); dv != Verdict::kOk)
            return dv;
          wserial(s, w) = 0xFF;
          set_phase(s, w, Phase::kClaim);
          break;
        }

        default:
          break;  // unreachable: the loop head filtered the phase
      }
    }
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> tile_rc(
      std::size_t t) const {
    return {t / grid_.g_cols(), t % grid_.g_cols()};
  }

  static void note(std::string* desc, std::size_t w, const char* what) {
    if (desc == nullptr) return;
    *desc = "w" + std::to_string(w) + " " + what;
  }

  satalgo::TileGrid grid_;
  std::size_t nw_;
  Mutation mut_;
};

}  // namespace satmc
