// The fundamental tile primitives of §II, with exact traffic accounting:
//   - shared-memory SAT algorithm (Steps 1–4)
//   - shared-memory column-wise/row-wise sum algorithm
//   - border additions used by the tile-based SAT algorithms (§III, §IV)
//   - auxiliary-vector I/O (LRS/GRS/LCS/GCS rows of W values, scalars)
//
// Each primitive performs the real arithmetic when the simulation is
// materialized and always charges the cost a CUDA block of `ctx.threads()`
// threads would incur.
#pragma once

#include <span>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "sat/tiles.hpp"
#include "util/check.hpp"

namespace satalgo {

// ---------------------------------------------------------------------------
// Cost helpers
// ---------------------------------------------------------------------------

/// Charges one full-tile pass of `accesses_per_elem` shared accesses by all
/// warps of the block (conflict-free direction).
inline void charge_tile_shared_pass(gpusim::BlockCtx& ctx, std::size_t w,
                                    std::size_t accesses_per_elem) {
  ctx.shared_cycles(accesses_per_elem * (w * w / 32));
}

/// Charges the sequential per-thread scan of §II Steps 2/3: W threads make W
/// steps; each step is one warp-collective access per 32 threads in
/// direction `dir`, costing the arrangement's conflict factor.
template <class T>
void charge_tile_scan(gpusim::BlockCtx& ctx, const gpusim::SharedTile<T>& tile,
                      gpusim::SharedAccessDir dir) {
  const std::size_t w = tile.width();
  const std::size_t cf = tile.conflict_factor(dir);
  const std::size_t warps = w / 32;           // W scanning threads
  const std::size_t cycles = w * warps * 2;   // read + write per step
  ctx.shared_cycles(cycles, cycles * (cf - 1));
  ctx.warp_alu(w * warps);
}

// ---------------------------------------------------------------------------
// Global ↔ shared tile movement
// ---------------------------------------------------------------------------

/// §II Step 1: copies tile T(I,J) of the rows×cols matrix that starts at
/// element `offset` of `src` (a batch's image k) into shared memory. Each
/// tile row is a contiguous W-element segment (coalesced).
template <class T>
void load_tile(gpusim::BlockCtx& ctx, const gpusim::GlobalBuffer<T>& src,
               const TileGrid& grid, std::size_t ti, std::size_t tj,
               gpusim::SharedTile<T>& tile, std::size_t offset = 0) {
  const std::size_t w = grid.tile_w();
  const std::size_t stride = grid.cols();
  ctx.read_contiguous_rows(w, w, sizeof(T));
  charge_tile_shared_pass(ctx, w, 1);
  if (tile.materialized()) {
    const T* base = src.data() + offset + (ti * w) * stride + tj * w;
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < w; ++j) tile.at(i, j) = base[i * stride + j];
  }
}

/// §II Step 4: writes the shared tile back to tile T(I,J) of the matrix
/// that starts at element `offset` of `dst`.
template <class T>
void store_tile(gpusim::BlockCtx& ctx, const gpusim::SharedTile<T>& tile,
                gpusim::GlobalBuffer<T>& dst, const TileGrid& grid,
                std::size_t ti, std::size_t tj, std::size_t offset = 0) {
  const std::size_t w = grid.tile_w();
  const std::size_t stride = grid.cols();
  ctx.write_contiguous_rows(w, w, sizeof(T));
  charge_tile_shared_pass(ctx, w, 1);
  if (tile.materialized()) {
    T* base = dst.data() + offset + (ti * w) * stride + tj * w;
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < w; ++j) base[i * stride + j] = tile.at(i, j);
  }
}

// ---------------------------------------------------------------------------
// In-shared prefix sums and sums (§II)
// ---------------------------------------------------------------------------

/// §II Step 2: thread i scans row i sequentially. Lanes of a warp access the
/// same column index across 32 consecutive rows each step — the access
/// pattern the diagonal arrangement exists for.
template <class T>
void row_prefix_sums_shared(gpusim::BlockCtx& ctx,
                            gpusim::SharedTile<T>& tile) {
  charge_tile_scan(ctx, tile, gpusim::SharedAccessDir::Column);
  if (tile.materialized()) {
    const std::size_t w = tile.width();
    for (std::size_t i = 0; i < w; ++i) {
      T run{};
      for (std::size_t j = 0; j < w; ++j) {
        run += tile.at(i, j);
        tile.at(i, j) = run;
      }
    }
  }
}

/// §II Step 3: thread j scans column j sequentially (row-direction access).
template <class T>
void col_prefix_sums_shared(gpusim::BlockCtx& ctx,
                            gpusim::SharedTile<T>& tile) {
  charge_tile_scan(ctx, tile, gpusim::SharedAccessDir::Row);
  if (tile.materialized()) {
    const std::size_t w = tile.width();
    for (std::size_t j = 0; j < w; ++j) {
      T run{};
      for (std::size_t i = 0; i < w; ++i) {
        run += tile.at(i, j);
        tile.at(i, j) = run;
      }
    }
  }
}

/// Row sums of the tile (the LRS vector: index i → sum of tile row i).
template <class T>
[[nodiscard]] std::vector<T> row_sums_shared(gpusim::BlockCtx& ctx,
                                             const gpusim::SharedTile<T>& tile) {
  charge_tile_scan(ctx, tile, gpusim::SharedAccessDir::Column);
  std::vector<T> sums;
  if (tile.materialized()) {
    const std::size_t w = tile.width();
    sums.assign(w, T{});
    for (std::size_t i = 0; i < w; ++i) {
      T run{};
      for (std::size_t j = 0; j < w; ++j) run += tile.at(i, j);
      sums[i] = run;
    }
  }
  return sums;
}

/// Column sums of the tile (the LCS vector: index j → sum of tile column j).
/// §II's column/row-sum algorithm folds this into the copy loop: the extra
/// cost is one add per element plus the W/m × W reduction tree, charged here.
template <class T>
[[nodiscard]] std::vector<T> col_sums_shared(gpusim::BlockCtx& ctx,
                                             const gpusim::SharedTile<T>& tile) {
  const std::size_t w = tile.width();
  ctx.warp_alu(w * w / 32);
  std::vector<T> sums;
  if (tile.materialized()) {
    sums.assign(w, T{});
    for (std::size_t i = 0; i < w; ++i)
      for (std::size_t j = 0; j < w; ++j) sums[j] += tile.at(i, j);
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Border additions (§III/§IV: turning a local tile into a global one)
// ---------------------------------------------------------------------------

/// Adds vector v (size W) to the leftmost column of the tile.
template <class T>
void add_to_left_column(gpusim::BlockCtx& ctx, gpusim::SharedTile<T>& tile,
                        std::span<const T> v) {
  const std::size_t w = tile.width();
  const std::size_t cf =
      tile.conflict_factor(gpusim::SharedAccessDir::Column);
  ctx.shared_cycles(2 * (w / 32), 2 * (w / 32) * (cf - 1));
  ctx.warp_alu(w / 32);
  if (tile.materialized() && !v.empty()) {
    SAT_DCHECK(v.size() == w);
    for (std::size_t i = 0; i < w; ++i) tile.at(i, 0) += v[i];
  }
}

/// Adds vector v (size W) to the topmost row of the tile.
template <class T>
void add_to_top_row(gpusim::BlockCtx& ctx, gpusim::SharedTile<T>& tile,
                    std::span<const T> v) {
  const std::size_t w = tile.width();
  ctx.shared_cycles(2 * (w / 32));
  ctx.warp_alu(w / 32);
  if (tile.materialized() && !v.empty()) {
    SAT_DCHECK(v.size() == w);
    for (std::size_t j = 0; j < w; ++j) tile.at(0, j) += v[j];
  }
}

/// Adds scalar s to the top-left corner element.
template <class T>
void add_to_corner(gpusim::BlockCtx& ctx, gpusim::SharedTile<T>& tile, T s) {
  ctx.shared_cycles(2);
  ctx.warp_alu(1);
  if (tile.materialized()) tile.at(0, 0) += s;
}

/// §II shared-memory SAT (Steps 2+3), after any border additions.
template <class T>
void sat_in_shared(gpusim::BlockCtx& ctx, gpusim::SharedTile<T>& tile) {
  row_prefix_sums_shared(ctx, tile);
  ctx.sync();
  col_prefix_sums_shared(ctx, tile);
  ctx.sync();
}

// ---------------------------------------------------------------------------
// Auxiliary-array I/O (per-tile W-vectors and scalars in global memory)
// ---------------------------------------------------------------------------

/// Writes a W-vector (LRS/GRS/LCS/GCS entry for one tile) — W consecutive
/// elements, coalesced. Reported to the protocol checker as a region write.
template <class T>
void write_aux_vector(gpusim::BlockCtx& ctx, gpusim::GlobalBuffer<T>& buf,
                      std::size_t base, std::span<const T> v, std::size_t w) {
  ctx.write_contiguous(w, sizeof(T));
  buf.note_write(ctx, base, w);
  if (buf.materialized()) {
    SAT_DCHECK(v.size() == w);
    for (std::size_t k = 0; k < w; ++k) buf[base + k] = v[k];
  }
}

/// Reads a W-vector.
template <class T>
[[nodiscard]] std::vector<T> read_aux_vector(gpusim::BlockCtx& ctx,
                                             const gpusim::GlobalBuffer<T>& buf,
                                             std::size_t base, std::size_t w) {
  ctx.read_contiguous(w, sizeof(T));
  buf.note_read(ctx, base, w);
  std::vector<T> v;
  if (buf.materialized()) {
    v.assign(w, T{});
    for (std::size_t k = 0; k < w; ++k) v[k] = buf[base + k];
  }
  return v;
}

/// Reads a W-vector and adds it into `acc` (look-back accumulation step).
template <class T>
void accumulate_aux_vector(gpusim::BlockCtx& ctx,
                           const gpusim::GlobalBuffer<T>& buf,
                           std::size_t base, std::size_t w,
                           std::vector<T>& acc) {
  ctx.read_contiguous(w, sizeof(T));
  ctx.warp_alu(w / 32);
  buf.note_read(ctx, base, w);
  if (buf.materialized()) {
    SAT_DCHECK(acc.size() == w);
    for (std::size_t k = 0; k < w; ++k) acc[k] += buf[base + k];
  }
}

/// Writes a per-tile scalar (LS/GLS/GS entry).
template <class T>
void write_aux_scalar(gpusim::BlockCtx& ctx, gpusim::GlobalBuffer<T>& buf,
                      std::size_t at, T v) {
  ctx.write_contiguous(1, sizeof(T));
  buf.note_write(ctx, at, 1);
  if (buf.materialized()) buf[at] = v;
}

/// Reads a per-tile scalar.
template <class T>
[[nodiscard]] T read_aux_scalar(gpusim::BlockCtx& ctx,
                                const gpusim::GlobalBuffer<T>& buf,
                                std::size_t at) {
  ctx.read_contiguous(1, sizeof(T));
  buf.note_read(ctx, at, 1);
  return buf.materialized() ? buf[at] : T{};
}

/// Element-wise sum of two W-vectors (in registers; used for GRS = GRS + LRS).
/// Either span may be empty (count-only mode, or an absent border treated as
/// zero); `w` fixes the charged width so counters never depend on
/// materialization.
template <class T>
[[nodiscard]] std::vector<T> vector_add(gpusim::BlockCtx& ctx,
                                        std::span<const T> a,
                                        std::span<const T> b, std::size_t w) {
  ctx.warp_alu((w + 31) / 32);
  if (a.empty()) return {b.begin(), b.end()};
  if (b.empty()) return {a.begin(), a.end()};
  SAT_DCHECK(a.size() == b.size());
  std::vector<T> out(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) out[k] = a[k] + b[k];
  return out;
}

/// Sum of a W-vector via the warp prefix-sum reduction (§II). `w` fixes the
/// charged width; `v` may be empty in count-only mode.
template <class T>
[[nodiscard]] T vector_sum(gpusim::BlockCtx& ctx, std::span<const T> v,
                           std::size_t w) {
  const std::size_t warps = (w + 31) / 32;
  for (std::size_t k = 0; k < warps; ++k) gpusim::charge_warp_scan(ctx, 32);
  if (warps > 1) gpusim::charge_warp_scan(ctx, 32);
  T sum{};
  for (const T& x : v) sum += x;
  return sum;
}

}  // namespace satalgo
