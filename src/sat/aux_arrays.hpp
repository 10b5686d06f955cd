// The per-tile auxiliary state of the tile-based SAT algorithms (Table II):
// LRS/GRS (row-sum W-vectors), LCS/GCS (column-sum W-vectors), LS/GLS/GS
// (scalars), and the R/C status-flag arrays of §IV.
#pragma once

#include <cstdint>

#include "gpusim/gpusim.hpp"
#include "sat/tiles.hpp"

namespace satalgo {

/// §IV status protocol for the R array.
namespace rflag {
inline constexpr std::uint8_t kLrs = 1;  ///< LRS(I,J) published
inline constexpr std::uint8_t kGrs = 2;  ///< GRS(I,J) published
inline constexpr std::uint8_t kGls = 3;  ///< GLS(I,J) published
inline constexpr std::uint8_t kGs = 4;   ///< GS(I,J) published
}  // namespace rflag

/// §IV status protocol for the C array.
namespace cflag {
inline constexpr std::uint8_t kLcs = 1;  ///< LCS(I,J) published
inline constexpr std::uint8_t kGcs = 2;  ///< GCS(I,J) published
}  // namespace cflag

/// Allocates the aux arrays a tile algorithm needs. Individual algorithms
/// use subsets; allocating the full set keeps indexing uniform (the unused
/// buffers cost O(n²/W) global memory, within the paper's own budget).
/// A batched launch sizes every array for `images` grids, image-major.
template <class T>
struct SatAux {
  SatAux(gpusim::SimContext& sim, const TileGrid& grid, std::size_t images = 1)
      : w(grid.tile_w()),
        lrs(sim, images * grid.count() * w, "aux.LRS"),
        grs(sim, images * grid.count() * w, "aux.GRS"),
        lcs(sim, images * grid.count() * w, "aux.LCS"),
        gcs(sim, images * grid.count() * w, "aux.GCS"),
        ls(sim, images * grid.count(), "aux.LS"),
        gls(sim, images * grid.count(), "aux.GLS"),
        gs(sim, images * grid.count(), "aux.GS"),
        r_status("R", images * grid.count()),
        c_status("C", images * grid.count()) {}

  /// Base offset of tile (I,J)'s W-vector in lrs/grs/lcs/gcs.
  [[nodiscard]] std::size_t vec_base(const TileGrid& grid, std::size_t ti,
                                     std::size_t tj) const {
    return grid.idx(ti, tj) * w;
  }

  std::size_t w;
  gpusim::GlobalBuffer<T> lrs;
  gpusim::GlobalBuffer<T> grs;
  gpusim::GlobalBuffer<T> lcs;
  gpusim::GlobalBuffer<T> gcs;
  gpusim::GlobalBuffer<T> ls;
  gpusim::GlobalBuffer<T> gls;
  gpusim::GlobalBuffer<T> gs;
  gpusim::StatusArray r_status;
  gpusim::StatusArray c_status;
};

}  // namespace satalgo
