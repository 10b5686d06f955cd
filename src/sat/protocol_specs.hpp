// Protocol-checker registrations for the SAT algorithms: the expected
// status-flag state machines and the tile → σ(I,J) serial maps, declared
// host-side before each instrumented launch so the checker can verify the
// look-back protocol (see gpusim/protocol_checker.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "gpusim/flags.hpp"
#include "gpusim/protocol_checker.hpp"
#include "sat/aux_arrays.hpp"
#include "sat/tiles.hpp"

namespace satalgo {

/// serial_of_tile[k·per_image + idx(I,J)] = k·per_image + σ(I,J) for a
/// batch of `batch` images: image k's tiles keep their in-image
/// diagonal-major order, offset by k·per_image. A batch of one is the
/// single image's map.
inline std::vector<std::size_t> batch_serial_map(const TileGrid& grid,
                                                 std::size_t batch) {
  const std::size_t per_image = grid.count();
  std::vector<std::size_t> serials(batch * per_image);
  for (std::size_t k = 0; k < batch; ++k)
    for (std::size_t ti = 0; ti < grid.g_rows(); ++ti)
      for (std::size_t tj = 0; tj < grid.g_cols(); ++tj)
        serials[k * per_image + grid.idx(ti, tj)] =
            k * per_image + grid.serial(ti, tj);
  return serials;
}

// ── 1R1W-SKSS-LB state machines as data ─────────────────────────────────
//
// Single source of truth for the protocol's flag lattices: consumed by
// expect_skss_lb_protocol below, and parsed verbatim by the code↔model
// conformance extractor (tools/satmc/conformance.py), which diffs these
// tables against the satmc model checker's declaration. Keep each
// transition on its own line — the extractor reads `{from, to}` pairs.

inline constexpr gpusim::ProtocolChecker::Transition kSkssLbTransitionsR[] = {
    {0, rflag::kLrs},
    {rflag::kLrs, rflag::kGrs},
    {rflag::kGrs, rflag::kGls},
    {rflag::kGls, rflag::kGs},
};
inline constexpr std::uint8_t kSkssLbTerminalR = rflag::kGs;

inline constexpr gpusim::ProtocolChecker::Transition kSkssLbTransitionsC[] = {
    {0, cflag::kLcs},
    {cflag::kLcs, cflag::kGcs},
};
inline constexpr std::uint8_t kSkssLbTerminalC = cflag::kGcs;

/// The full 1R1W-SKSS-LB state machines: R walks 0→LRS→GRS→GLS→GS, C walks
/// 0→LCS→GCS; every tile must end at the terminal state exactly once.
inline void expect_skss_lb_protocol(gpusim::ProtocolChecker& checker,
                                    const gpusim::StatusArray& r_status,
                                    const gpusim::StatusArray& c_status) {
  checker.expect_transitions(
      r_status,
      {std::begin(kSkssLbTransitionsR), std::end(kSkssLbTransitionsR)},
      kSkssLbTerminalR);
  checker.expect_transitions(
      c_status,
      {std::begin(kSkssLbTransitionsC), std::end(kSkssLbTransitionsC)},
      kSkssLbTerminalC);
}

/// Plain SKSS publishes only the final per-tile GRS state on R (one shot).
inline void expect_skss_protocol(gpusim::ProtocolChecker& checker,
                                 const gpusim::StatusArray& r_status) {
  checker.expect_transitions(r_status, {{0, rflag::kGrs}}, rflag::kGrs);
}

}  // namespace satalgo
