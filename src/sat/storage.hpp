// The tiled base+residual SAT store, sat::TiledSat (ROADMAP item 3, after
// Ehsan et al.'s compact integral image representations).
//
// Every host engine in the ledger is bound by DRAM traffic, and the SAT
// *output* write is the dominant term — so a representation that halves the
// output bytes is a throughput lever, not just a footprint one. Splitting
// the table per W×W tile as
//
//     SAT(r0+p, c0+q) = RowBand(p) + ColBand(q) + L(p, q)
//
//       RowBand(p) = Σ_{p'≤p} (sum of row r0+p' left of the tile)
//       ColBand(q) = SAT(r0−1, c0+q)            (0 above the top band)
//       L(p, q)    = tile-local SAT of the W×W tile
//
// stores two W-entry *wide* base vectors per tile plus a dense plane of
// *narrow* local residuals. Only L varies per cell; its per-tile range is
// bounded by the tile's own content, so for most inputs it fits u16 or u32
// even when the global SAT needs 64 bits. Per tile we store the minimum of
// L as a bias (folded into RowBand, so readers never see it) and pick the
// narrowest width that holds max−min, falling back to the wide type when the
// tile's dynamic range overflows u32 (counted, never wrong).
//
// Exactness contract (integral T): reconstruction is bit-exact versus the
// dense i64 oracle whenever every *tile-local* SAT fits T. That is strictly
// weaker than the dense-mode requirement that the FULL table fits T — tiled
// residual storage is a range extension as well as a compression: an i32
// input whose total exceeds INT32_MAX still reconstructs exactly, because
// the base vectors are 64-bit. For floating T the residual plane is f32 and
// the bases are f64; error is bounded by the f32 representation of the
// tile-local values (see docs/host_engine.md, "Storage modes").
//
// Layout: residual planes are indexed tile-contiguously,
// `tile*W² + p*W + q`, so every tile slot and every row of a 4-byte plane
// is 64-byte aligned whenever W is a multiple of 16 — the non-temporal
// store path in the encoder requires never mixing streamed and regular
// stores in one cache line. Planes are allocated uninitialized and
// oversized (one slot per tile for each width) through
// satutil::large_array, so they are 2 MiB-aligned and huge-page-advised:
// untouched regions are never faulted in, and the three widths coexist at
// the cost of address space, not RSS. A touched region becomes resident
// 2 MiB at a time, though, so a store whose tiles mix residual widths pays
// up to one 2 MiB page per width for each run of neighbouring tiles that
// uses it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "core/region.hpp"
#include "util/check.hpp"
#include "util/large_alloc.hpp"
#include "util/simd.hpp"
#include "util/span2d.hpp"

namespace sat {

namespace detail {

/// Folds `row[0..n)` into the running [mn, mx] range. 8-lane AVX2 sweep for
/// the 4-byte types (the range scan otherwise costs more than the narrow
/// conversion it feeds); engines call this on each tile row right after the
/// scan kernel produces it, while the row is still cache-hot.
template <class U>
inline void update_range(const U* row, std::size_t n, U& mn, U& mx) {
  std::size_t q = 0;
#if defined(SATSIMD_BACKEND_AVX2)
  if constexpr (sizeof(U) == 4) {
    if (n >= 8) {
      if constexpr (std::is_same_v<U, float>) {
        __m256 vmn = _mm256_set1_ps(mn), vmx = _mm256_set1_ps(mx);
        for (; q + 8 <= n; q += 8) {
          const __m256 v = _mm256_loadu_ps(row + q);
          vmn = _mm256_min_ps(vmn, v);
          vmx = _mm256_max_ps(vmx, v);
        }
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, vmn);
        for (float v : lanes) mn = v < mn ? v : mn;
        _mm256_store_ps(lanes, vmx);
        for (float v : lanes) mx = v > mx ? v : mx;
      } else {
        __m256i vmn = _mm256_set1_epi32(static_cast<int>(mn));
        __m256i vmx = _mm256_set1_epi32(static_cast<int>(mx));
        for (; q + 8 <= n; q += 8) {
          const __m256i v =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + q));
          if constexpr (std::is_signed_v<U>) {
            vmn = _mm256_min_epi32(vmn, v);
            vmx = _mm256_max_epi32(vmx, v);
          } else {
            vmn = _mm256_min_epu32(vmn, v);
            vmx = _mm256_max_epu32(vmx, v);
          }
        }
        alignas(32) U lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmn);
        for (U v : lanes) mn = v < mn ? v : mn;
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmx);
        for (U v : lanes) mx = v > mx ? v : mx;
      }
    }
  }
#endif
  for (; q < n; ++q) {
    mn = row[q] < mn ? row[q] : mn;
    mx = row[q] > mx ? row[q] : mx;
  }
}

}  // namespace detail

/// A SAT in tiled base+residual form. Readers use value()/region_sum()
/// (O(1), two base loads + one narrow load per corner) or decode_into()
/// to materialize a dense table.
template <class T>
class TiledSat {
  static_assert(std::is_arithmetic_v<T>);

 public:
  /// Accumulator type of the base vectors: f64 for floating tables,
  /// i64 for integral ones.
  using Wide =
      std::conditional_t<std::is_floating_point_v<T>, double, std::int64_t>;

  /// Per-tile residual encoding, chosen from the tile's value range.
  enum class TileEnc : std::uint8_t {
    kU16 = 0,   ///< bias-relative residual in 2 bytes (integral T)
    kU32 = 1,   ///< bias-relative residual in 4 bytes (integral T)
    kF32 = 2,   ///< bias-relative residual in 4 bytes (floating T)
    kWide = 3,  ///< overflow fallback: raw tile-local SAT value in Wide
  };

  TiledSat() = default;

  TiledSat(std::size_t rows, std::size_t cols, std::size_t tile_w)
      : rows_(rows), cols_(cols), w_(tile_w) {
    SAT_CHECK_MSG(rows > 0 && cols > 0 && tile_w > 0,
                  "TiledSat needs a non-empty shape and tile width");
    tr_ = (rows + w_ - 1) / w_;
    tc_ = (cols + w_ - 1) / w_;
    const std::size_t tiles = tr_ * tc_;
    const std::size_t slot = w_ * w_;
    row_base_ = satutil::large_array<Wide>(tiles * w_);
    col_base_ = satutil::large_array<Wide>(tiles * w_);
    enc_.assign(tiles, static_cast<std::uint8_t>(TileEnc::kWide));
    if constexpr (std::is_floating_point_v<T>) {
      f32_ = satutil::large_array<float>(tiles * slot);
    } else {
      u16_ = satutil::large_array<std::uint16_t>(tiles * slot);
      u32_ = satutil::large_array<std::uint32_t>(tiles * slot);
    }
    wide_ = satutil::large_array<Wide>(tiles * slot);
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t tile_w() const { return w_; }
  [[nodiscard]] std::size_t tile_rows() const { return tr_; }
  [[nodiscard]] std::size_t tile_cols() const { return tc_; }
  [[nodiscard]] std::size_t tile_count() const { return tr_ * tc_; }
  [[nodiscard]] std::size_t tile_index(std::size_t ti, std::size_t tj) const {
    return ti * tc_ + tj;
  }

  [[nodiscard]] TileEnc enc(std::size_t tile) const {
    return static_cast<TileEnc>(enc_[tile]);
  }

  // ---- encoder side ------------------------------------------------------
  // Each tile's slots are disjoint; distinct tiles may be encoded from
  // distinct threads without synchronization (host/sat_tiled.hpp does
  // exactly that).

  /// Encode one tile's residual from its local SAT `tilebuf` (tp×tq
  /// values, leading dimension `ld`) and store its bias as the row base;
  /// add_bands then adds the tile's bases. [mn, mx] is the tile's value
  /// range, which the producer tracks while each row is L1-hot
  /// (detail::update_range) so the encoder needs no second sweep over a
  /// by-then cold tile; it must cover every tilebuf value — a too-narrow
  /// range corrupts the residuals. Chooses the narrowest residual width
  /// that holds the range and — when `allow_stream` and the geometry
  /// permits — writes 4-byte integral T's residuals with non-temporal
  /// stores and a store fence before returning, so cross-thread readers
  /// only need the usual release/acquire handoff.
  void encode_tile(std::size_t tile, const T* tilebuf, std::size_t ld,
                   std::size_t tp, std::size_t tq, T mn, T mx,
                   bool allow_stream = false) {
    Wide* rb = row_base_.get() + tile * w_;
    TileEnc e;
    if constexpr (std::is_floating_point_v<T>) {
      e = TileEnc::kF32;
    } else {
      // Two's-complement subtraction in u64 yields the exact range even
      // when max−min overflows the signed type.
      const std::uint64_t range =
          static_cast<std::uint64_t>(mx) - static_cast<std::uint64_t>(mn);
      e = range <= 0xFFFFu  ? TileEnc::kU16
          : range <= 0xFFFFFFFFu ? TileEnc::kU32
                                 : TileEnc::kWide;
    }
    enc_[tile] = static_cast<std::uint8_t>(e);

    const std::size_t slot = tile * w_ * w_;
    // The scalar pack: out[q] = conv(tilebuf[q]) over the tile's rows.
    auto pack = [&](auto* plane, auto conv) {
      for (std::size_t p = 0; p < tp; ++p) {
        const T* src = tilebuf + p * ld;
        auto* out = plane + slot + p * w_;
        for (std::size_t q = 0; q < tq; ++q) out[q] = conv(src[q]);
      }
    };
    // The bias-relative residual, exact in u64 two's complement.
    auto rel = [mn](T v) {
      return static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(mn);
    };
    if (e == TileEnc::kWide) {
      // Overflow fallback: raw values, no bias (avoids i64 range games).
      std::fill(rb, rb + tp, Wide{});
      pack(wide_.get(), [](T v) { return static_cast<Wide>(v); });
      return;
    }
    std::fill(rb, rb + tp, static_cast<Wide>(mn));  // the bias
#if defined(SATSIMD_BACKEND_AVX2)
    // The one SIMD pack for 4-byte integral T: v − bias in 32-bit lanes, 16
    // residuals per step, streamed. `epi32` wraps exactly like the scalar
    // u64 difference, so it is bit-identical to `pack`; u16 residuals
    // (< 2^16) narrow through packus. Gated on W and tq being multiples of
    // 16 so every streamed row covers whole 32-byte vectors, every u32 row
    // whole 64-byte lines, and no scalar tail shares a line with them.
    if constexpr (sizeof(T) == 4 && std::is_integral_v<T>) {
      if (allow_stream && w_ % 16 == 0 && tq % 16 == 0) {
        const __m256i b = _mm256_set1_epi32(static_cast<int>(mn));
        for (std::size_t p = 0; p < tp; ++p) {
          const auto* in = reinterpret_cast<const __m256i*>(tilebuf + p * ld);
          const std::size_t out = slot + p * w_;
          for (std::size_t q = 0; q < tq; q += 16, in += 2) {
            const __m256i lo = _mm256_sub_epi32(_mm256_loadu_si256(in), b);
            const __m256i hi = _mm256_sub_epi32(_mm256_loadu_si256(in + 1), b);
            if (e == TileEnc::kU16) {
              _mm256_stream_si256(
                  reinterpret_cast<__m256i*>(u16_.get() + out + q),
                  _mm256_permute4x64_epi64(_mm256_packus_epi32(lo, hi),
                                           _MM_SHUFFLE(3, 1, 2, 0)));
            } else {
              auto* dst = reinterpret_cast<__m256i*>(u32_.get() + out + q);
              _mm256_stream_si256(dst, lo);
              _mm256_stream_si256(dst + 1, hi);
            }
          }
        }
        satsimd::store_fence();
        return;
      }
    }
#else
    (void)allow_stream;
#endif
    if (e == TileEnc::kF32) {
      if constexpr (std::is_floating_point_v<T>)
        pack(f32_.get(), [mn](T v) { return static_cast<float>(v - mn); });
    } else if (e == TileEnc::kU32) {
      pack(u32_.get(), [&](T v) { return static_cast<std::uint32_t>(rel(v)); });
    } else {
      pack(u16_.get(), [&](T v) { return static_cast<std::uint16_t>(rel(v)); });
    }
  }

  /// Adds a tile's bases after encode_tile: row_band[p] = RowBand(p),
  /// col_band[q] = ColBand(q) (see the file header).
  void add_bands(std::size_t tile, std::size_t tp, std::size_t tq,
                 const Wide* row_band, const Wide* col_band) {
    Wide* rb = row_base_.get() + tile * w_;
    for (std::size_t p = 0; p < tp; ++p) rb[p] += row_band[p];
    std::copy(col_band, col_band + tq, col_base_.get() + tile * w_);
  }

  // ---- reader side -------------------------------------------------------

  /// SAT value at (r, c), reconstructed as base + residual.
  [[nodiscard]] Wide value(std::size_t r, std::size_t c) const {
    SAT_DCHECK(r < rows_ && c < cols_);
    const std::size_t ti = r / w_, tj = c / w_;
    const std::size_t p = r % w_, q = c % w_;
    const std::size_t t = ti * tc_ + tj;
    const Wide base = row_base_[t * w_ + p] + col_base_[t * w_ + q];
    const std::size_t off = t * w_ * w_ + p * w_ + q;
    switch (static_cast<TileEnc>(enc_[t])) {
      case TileEnc::kU16: return base + static_cast<Wide>(u16_[off]);
      case TileEnc::kU32: return base + static_cast<Wide>(u32_[off]);
      case TileEnc::kF32: return base + static_cast<Wide>(f32_[off]);
      case TileEnc::kWide: return base + wide_[off];
    }
    return base;
  }

  /// Materialize the dense table. For integral T the cast back to T is
  /// exact only when the dense SAT itself fits T (the dense-mode contract);
  /// residual storage can represent tables that dense T storage cannot.
  void decode_into(satutil::Span2d<T> out) const {
    SAT_CHECK_MSG(out.rows() == rows_ && out.cols() == cols_,
                  "decode_into shape mismatch: " << out.rows() << "x"
                                                 << out.cols() << " vs "
                                                 << rows_ << "x" << cols_);
    for (std::size_t ti = 0; ti < tr_; ++ti) {
      const std::size_t r0 = ti * w_;
      const std::size_t tp = rows_ - r0 < w_ ? rows_ - r0 : w_;
      for (std::size_t tj = 0; tj < tc_; ++tj) {
        const std::size_t c0 = tj * w_;
        const std::size_t tq = cols_ - c0 < w_ ? cols_ - c0 : w_;
        const std::size_t t = ti * tc_ + tj;
        const Wide* rb = row_base_.get() + t * w_;
        const Wide* cb = col_base_.get() + t * w_;
        const std::size_t slot = t * w_ * w_;
        const TileEnc e = static_cast<TileEnc>(enc_[t]);
        for (std::size_t p = 0; p < tp; ++p) {
          T* dst = &out(r0 + p, c0);
          const Wide base_r = rb[p];
          switch (e) {
            case TileEnc::kU16: {
              const std::uint16_t* res = u16_.get() + slot + p * w_;
              for (std::size_t q = 0; q < tq; ++q)
                dst[q] = static_cast<T>(base_r + cb[q] +
                                        static_cast<Wide>(res[q]));
              break;
            }
            case TileEnc::kU32: {
              const std::uint32_t* res = u32_.get() + slot + p * w_;
              for (std::size_t q = 0; q < tq; ++q)
                dst[q] = static_cast<T>(base_r + cb[q] +
                                        static_cast<Wide>(res[q]));
              break;
            }
            case TileEnc::kF32: {
              const float* res = f32_.get() + slot + p * w_;
              for (std::size_t q = 0; q < tq; ++q)
                dst[q] = static_cast<T>(base_r + cb[q] +
                                        static_cast<Wide>(res[q]));
              break;
            }
            case TileEnc::kWide: {
              const Wide* res = wide_.get() + slot + p * w_;
              for (std::size_t q = 0; q < tq; ++q)
                dst[q] = static_cast<T>(base_r + cb[q] + res[q]);
              break;
            }
          }
        }
      }
    }
  }

  // ---- accounting --------------------------------------------------------

  /// Bytes this representation actually stores (residual planes at their
  /// chosen widths + base vectors + tags), counting only the live tp×tq
  /// region of clipped edge tiles.
  [[nodiscard]] std::size_t residual_bytes() const {
    std::size_t bytes = 0;
    for (std::size_t ti = 0; ti < tr_; ++ti) {
      const std::size_t tp = rows_ - ti * w_ < w_ ? rows_ - ti * w_ : w_;
      for (std::size_t tj = 0; tj < tc_; ++tj) {
        const std::size_t tq = cols_ - tj * w_ < w_ ? cols_ - tj * w_ : w_;
        std::size_t esz = 0;
        switch (enc(ti * tc_ + tj)) {
          case TileEnc::kU16: esz = 2; break;
          case TileEnc::kU32: esz = 4; break;
          case TileEnc::kF32: esz = 4; break;
          case TileEnc::kWide: esz = sizeof(Wide); break;
        }
        bytes += tp * tq * esz + (tp + tq) * sizeof(Wide) + 1;
      }
    }
    return bytes;
  }

  /// Bytes the dense table of the same shape occupies.
  [[nodiscard]] std::size_t dense_bytes() const {
    return rows_ * cols_ * sizeof(T);
  }

  /// Tiles whose value range overflowed u32 and fell back to wide storage.
  [[nodiscard]] std::size_t overflow_tiles() const {
    std::size_t n = 0;
    for (std::uint8_t e : enc_)
      n += e == static_cast<std::uint8_t>(TileEnc::kWide) ? 1u : 0u;
    return n;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t w_ = 0;
  std::size_t tr_ = 0;
  std::size_t tc_ = 0;
  satutil::LargeArray<Wide> row_base_;
  satutil::LargeArray<Wide> col_base_;
  std::vector<std::uint8_t> enc_;
  satutil::LargeArray<std::uint16_t> u16_;
  satutil::LargeArray<std::uint32_t> u32_;
  satutil::LargeArray<float> f32_;
  satutil::LargeArray<Wide> wide_;
};

/// region_sum on a tiled table — the same four-corner identity and guard
/// semantics as the dense overload in core/region.hpp, but each corner is a
/// decompress-on-the-fly base+residual lookup and the sum is returned in
/// the wide accumulator type (bit-exact for integral T under the tile-local
/// exactness contract).
template <class T>
[[nodiscard]] typename TiledSat<T>::Wide region_sum(const TiledSat<T>& table,
                                                    const Rect& rect) {
  using Wide = typename TiledSat<T>::Wide;
  SAT_CHECK_MSG(rect.r0 <= rect.r1 && rect.c0 <= rect.c1 &&
                    rect.r1 <= table.rows() && rect.c1 <= table.cols(),
                "rectangle [" << rect.r0 << "," << rect.r1 << ")x[" << rect.c0
                              << "," << rect.c1 << ") out of bounds for "
                              << table.rows() << "x" << table.cols());
  if (rect.r0 == rect.r1 || rect.c0 == rect.c1) return Wide{};
  Wide sum = table.value(rect.r1 - 1, rect.c1 - 1);
  if (rect.r0 > 0) sum -= table.value(rect.r0 - 1, rect.c1 - 1);
  if (rect.c0 > 0) sum -= table.value(rect.r1 - 1, rect.c0 - 1);
  if (rect.r0 > 0 && rect.c0 > 0) sum += table.value(rect.r0 - 1, rect.c0 - 1);
  return sum;
}

/// Mean of `rect` on a tiled table; requires a non-empty rect.
template <class T>
[[nodiscard]] double region_mean(const TiledSat<T>& table, const Rect& rect) {
  SAT_CHECK(rect.area() > 0);
  return static_cast<double>(region_sum(table, rect)) /
         static_cast<double>(rect.area());
}

}  // namespace sat
