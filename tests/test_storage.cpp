// The tiled base+residual store end to end: the TiledSat container and its
// host producer (sat_tiled, on one and on several workers) against the
// sequential i64 oracle, the per-tile width selection and its wide overflow
// fallback, the range-extension contract (tables whose dense form overflows
// T still reconstruct exactly), the decompress-on-the-fly query kernel, the
// vision consumers on a compressed table, and the API plumbing
// (compute_sat_tiled, Storage::kKahanF32, host.storage.* metrics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/api.hpp"
#include "host/sat_cpu.hpp"
#include "host/sat_tiled.hpp"
#include "host/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sat/query_kernel.hpp"
#include "sat/storage.hpp"
#include "util/rng.hpp"
#include "vision/haar.hpp"
#include "vision/integral_ops.hpp"
#include "vision/match.hpp"

namespace {

using sat::Matrix;
using sat::Rect;
using sat::TiledSat;

/// Sequential i64 oracle SAT of an integer-valued input.
template <class T>
Matrix<std::int64_t> oracle_i64(const Matrix<T>& in) {
  Matrix<std::int64_t> wide(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.rows(); ++i)
    for (std::size_t j = 0; j < in.cols(); ++j)
      wide(i, j) = static_cast<std::int64_t>(in(i, j));
  Matrix<std::int64_t> out(in.rows(), in.cols());
  sathost::sat_sequential<std::int64_t>(wide.view(), out.view());
  return out;
}

/// Encodes `in` into `out` with the tiled producer on `workers` threads.
template <class T>
void encode(const Matrix<T>& in, TiledSat<T>& out, std::size_t workers = 1,
            obs::Registry* reg = nullptr) {
  sathost::ThreadPool pool(workers);
  sathost::sat_tiled<T>(pool, in.view(), out, reg);
}

std::vector<Rect> random_rects(std::size_t rows, std::size_t cols,
                               std::size_t count, std::uint64_t seed) {
  satutil::Rng rng(seed);
  std::vector<Rect> out(count);
  for (auto& r : out) {
    std::size_t r0 = rng.next_below(rows), r1 = rng.next_below(rows + 1);
    std::size_t c0 = rng.next_below(cols), c1 = rng.next_below(cols + 1);
    if (r0 > r1) std::swap(r0, r1);
    if (c0 > c1) std::swap(c0, c1);
    r = {r0, c0, r1, c1};
  }
  return out;
}

// The encoder on 1 and on 3 workers, several shapes (square / rectangular
// / tile-clipped edges), bit-exact against the i64 oracle at every cell and
// for region_sum over random rectangles.
TEST(TiledResidual, BothEncodersMatchI64Oracle) {
  const struct {
    std::size_t rows, cols, w;
  } shapes[] = {{64, 64, 32}, {96, 160, 32}, {70, 45, 32}, {128, 128, 64}};
  for (const auto& s : shapes) {
    const auto in = Matrix<std::int32_t>::random(s.rows, s.cols, 11, 0, 255);
    const auto oracle = oracle_i64(in);
    for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      TiledSat<std::int32_t> t(s.rows, s.cols, s.w);
      encode(in, t, workers);
      for (std::size_t i = 0; i < s.rows; ++i)
        for (std::size_t j = 0; j < s.cols; ++j)
          ASSERT_EQ(t.value(i, j), oracle(i, j))
              << s.rows << "x" << s.cols << " w=" << s.w << " workers="
              << workers << " @" << i << "," << j;
      for (const Rect& r : random_rects(s.rows, s.cols, 200, 5))
        ASSERT_EQ(sat::region_sum(t, r), sat::region_sum(oracle, r));
    }
  }
}

TEST(TiledResidual, DecodeIntoMatchesValueAndDenseEngine) {
  const std::size_t n = 96;
  const auto in = Matrix<std::int32_t>::random(n, n, 3, 0, 100);
  TiledSat<std::int32_t> tiled(n, n, 32);
  encode(in, tiled);
  Matrix<std::int32_t> decoded(n, n);
  tiled.decode_into(decoded.view());
  Matrix<std::int32_t> dense(n, n);
  sathost::sat_sequential<std::int32_t>(in.view(), dense.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(decoded(i, j), dense(i, j));
      ASSERT_EQ(tiled.value(i, j), static_cast<std::int64_t>(dense(i, j)));
    }
}

// Width selection: an all-zero input keeps every tile-local range at 0
// (u16); a full-range random input at a wide tile exceeds u16; values
// large enough to blow a tile's range past u32 take the wide fallback.
TEST(TiledResidual, PicksNarrowestWidthPerTile) {
  using Enc = TiledSat<std::int32_t>::TileEnc;
  const std::size_t n = 64, w = 32;
  {
    Matrix<std::int32_t> zeros(n, n);
    TiledSat<std::int32_t> t(n, n, w);
    encode(zeros, t);
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      EXPECT_EQ(t.enc(k), Enc::kU16);
    EXPECT_EQ(t.overflow_tiles(), 0u);
  }
  {
    // Constant 100: tile-local SAT spans [100, 32·32·100] = 102 400 > u16.
    Matrix<std::int32_t> big(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) big(i, j) = 100;
    TiledSat<std::int32_t> t(n, n, w);
    encode(big, t);
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      EXPECT_EQ(t.enc(k), Enc::kU32);
    EXPECT_EQ(t.overflow_tiles(), 0u);
  }
}

// High-dynamic-range input (i64 elements ~2^38): every tile's local range
// overflows u32, the encoder falls back to wide residuals, and the result
// is still bit-exact. This is the overflow path the ISSUE requires
// exercised.
TEST(TiledResidual, HighDynamicRangeFallsBackToWideExactly) {
  using Enc = TiledSat<std::int64_t>::TileEnc;
  const std::size_t n = 64, w = 32;
  const std::int64_t big = std::int64_t{1} << 38;
  auto in = Matrix<std::int64_t>::random(n, n, 17, 0, 3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if ((i + j) % 7 == 0) in(i, j) += big;
  Matrix<std::int64_t> dense(n, n);
  sathost::sat_sequential<std::int64_t>(in.view(), dense.view());

  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    TiledSat<std::int64_t> t(n, n, w);
    encode(in, t, workers);
    EXPECT_GT(t.overflow_tiles(), 0u) << "workers " << workers;
    bool saw_wide = false;
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      saw_wide |= t.enc(k) == Enc::kWide;
    EXPECT_TRUE(saw_wide);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(t.value(i, j), dense(i, j)) << "workers " << workers;
  }
}

// The range-extension contract: an i32 input whose FULL table overflows
// i32 (dense i32 storage would be wrong) still reconstructs exactly,
// because only the tile-local SAT must fit T and the bases are 64-bit.
TEST(TiledResidual, RepresentsTablesDenseTCannotHold) {
  const std::size_t n = 256, w = 64;
  Matrix<std::int32_t> in(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) in(i, j) = 65535;
  const auto oracle = oracle_i64(in);
  ASSERT_GT(oracle(n - 1, n - 1),
            static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()))
      << "input not extreme enough to prove the extension";
  // Tile-local SAT max = 64·64·65535 < 2^31: contract holds.
  TiledSat<std::int32_t> t(n, n, w);
  encode(in, t);
  EXPECT_EQ(t.overflow_tiles(), 0u);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(t.value(i, j), oracle(i, j));
}

TEST(TiledResidual, FloatResidualsStayWithinF32Error) {
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<double>::random(n, n, 23, 0.0, 1.0);
  TiledSat<double> t(n, n, w);
  encode(in, t);
  Matrix<double> dense(n, n);
  sathost::sat_sequential<double>(in.view(), dense.view());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // Residuals are f32 of tile-local values (≤ 32·32 unit elements), so
      // absolute error per cell is bounded by one f32 ulp of ~1024.
      ASSERT_NEAR(t.value(i, j), dense(i, j), 1e-3) << i << "," << j;
    }
}

TEST(TiledResidual, ResidualBytesUndercutDenseBytes) {
  const std::size_t n = 512, w = 128;
  const auto in = Matrix<std::int32_t>::random(n, n, 7, 0, 1);
  TiledSat<std::int32_t> t(n, n, w);
  obs::Registry reg;
  encode(in, t, 1, &reg);
  // Binary input, W=128: every tile-local SAT ≤ 16384, all tiles u16 —
  // 2 bytes/element + bases. ≥ 40% under the 4-byte dense table.
  EXPECT_EQ(t.overflow_tiles(), 0u);
  EXPECT_LE(t.residual_bytes(), t.dense_bytes() * 6 / 10);
  const auto snap = reg.snapshot();
  const std::uint64_t* rb = snap.counter("host.storage.residual_bytes");
  const std::uint64_t* db = snap.counter("host.storage.dense_bytes");
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(*rb, t.residual_bytes());
  EXPECT_EQ(*db, t.dense_bytes());
  // No overflow ⇒ the counter is never resolved, so it must be absent.
  EXPECT_EQ(snap.counter("host.storage.overflow_tiles"), nullptr);
}

TEST(TiledResidual, LbEncoderPublishesStorageMetrics) {
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int32_t>::random(n, n, 9, 0, 3);
  TiledSat<std::int32_t> t(n, n, w);
  sathost::ThreadPool pool(2);
  obs::Registry reg;
  sathost::sat_tiled<std::int32_t>(pool, in.view(), t, &reg);
  const auto snap = reg.snapshot();
  const std::uint64_t* rb = snap.counter("host.storage.residual_bytes");
  const std::uint64_t* db = snap.counter("host.storage.dense_bytes");
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(*rb, t.residual_bytes());
  EXPECT_EQ(*db, t.dense_bytes());
}

// --- decompress-on-the-fly query kernel ---------------------------------

TEST(TiledResidual, QueryKernelMatchesDenseKernelBitExactly) {
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int64_t>::random(n, n, 3, 0, 50);
  Matrix<std::int64_t> dense(n, n);
  sathost::sat_sequential<std::int64_t>(in.view(), dense.view());
  TiledSat<std::int64_t> tiled(n, n, w);
  encode(in, tiled);

  gpusim::SimContext sim;
  gpusim::GlobalBuffer<std::int64_t> tab_buf(sim, n * n, "tab");
  tab_buf.upload(std::span(dense.data(), dense.size()));
  const auto rects = random_rects(n, n, 400, 13);
  const auto via_dense =
      satalgo::run_query_kernel(sim, tab_buf, n, n, rects);
  const auto via_tiled = satalgo::run_query_kernel_tiled(sim, tiled, rects);
  ASSERT_EQ(via_tiled.size(), rects.size());
  for (std::size_t k = 0; k < rects.size(); ++k)
    ASSERT_EQ(via_tiled[k], via_dense[k]) << k;
}

TEST(TiledResidual, QueryKernelTrafficReflectsNarrowResiduals) {
  // u16 tiles: the tiled kernel must model each live corner as one 2-byte
  // residual gather plus two 8-byte L2-resident base loads — the byte
  // accounting is welded exactly, so a regression in the corner
  // classification or the charged widths is caught here. (Random scattered
  // corners occupy one DRAM sector each regardless of width, so the
  // sector-count win of the narrow plane shows up under clustered query
  // sets and in table footprint, not in this gather-bound count.)
  const std::size_t n = 128, w = 32;
  const auto in = Matrix<std::int64_t>::random(n, n, 3, 0, 3);
  TiledSat<std::int64_t> tiled(n, n, w);
  encode(in, tiled);
  using Enc = TiledSat<std::int64_t>::TileEnc;
  for (std::size_t k = 0; k < tiled.tile_count(); ++k)
    ASSERT_EQ(tiled.enc(k), Enc::kU16);

  const auto rects = random_rects(n, n, 512, 21);
  std::size_t corners = 0;
  for (const Rect& r : rects) {
    if (r.r0 >= r.r1 || r.c0 >= r.c1) continue;
    corners += 1 + (r.r0 > 0 ? 1 : 0) + (r.c0 > 0 ? 1 : 0) +
               (r.r0 > 0 && r.c0 > 0 ? 1 : 0);
  }
  gpusim::SimContext co;
  co.materialize = false;
  gpusim::KernelReport tiled_rep;
  (void)satalgo::run_query_kernel_tiled(co, tiled, rects, &tiled_rep);
  EXPECT_EQ(tiled_rep.counters.element_reads, 3 * corners);
  EXPECT_EQ(tiled_rep.counters.global_bytes_read,
            corners * 2 + 2 * corners * sizeof(std::int64_t));
}

// --- vision consumers on a compressed table -----------------------------

TEST(TiledResidual, HaarAndBoxFilterMatchDenseTables) {
  const std::size_t n = 96;
  const auto img = Matrix<std::int32_t>::random(n, n, 31, 0, 255);
  Matrix<std::int64_t> dense = oracle_i64(img);
  TiledSat<std::int32_t> tiled(n, n, 32);
  encode(img, tiled);

  const auto feat = satvision::haar_edge_horizontal(16, 24);
  for (std::size_t r = 0; r + 16 <= n; r += 13)
    for (std::size_t c = 0; c + 24 <= n; c += 11)
      ASSERT_DOUBLE_EQ(feat.evaluate(tiled, r, c), feat.evaluate(dense, r, c));
  const auto hits_dense = satvision::scan_feature(dense, feat, 1000.0, 7);
  const auto hits_tiled = satvision::scan_feature(tiled, feat, 1000.0, 7);
  ASSERT_EQ(hits_dense.size(), hits_tiled.size());
  for (std::size_t k = 0; k < hits_dense.size(); ++k) {
    EXPECT_EQ(hits_dense[k].row, hits_tiled[k].row);
    EXPECT_EQ(hits_dense[k].col, hits_tiled[k].col);
    EXPECT_DOUBLE_EQ(hits_dense[k].response, hits_tiled[k].response);
  }

  const auto box_dense = satvision::box_filter(dense, 3);
  const auto box_tiled = satvision::box_filter(tiled, 3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_FLOAT_EQ(box_dense(i, j), box_tiled(i, j));
}

TEST(TiledResidual, TiledMomentTablesDriveTemplateMatching) {
  const std::size_t n = 80;
  auto img = Matrix<float>::random(n, n, 41, 0.0f, 64.0f);
  // Plant a distinctive patch.
  Matrix<float> templ(12, 12);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j) {
      templ(i, j) = static_cast<float>((i * 31 + j * 17) % 97);
      img(40 + i, 23 + j) = templ(i, j);
    }
  const auto dense_mom = satvision::MomentTables::build(img);
  const auto tiled_mom = satvision::TiledMomentTables::build(img, 32);
  const auto via_dense = satvision::match_template_with(img, templ, dense_mom);
  const auto via_tiled = satvision::match_template_with(img, templ, tiled_mom);
  ASSERT_EQ(via_dense.size(), 1u);
  ASSERT_EQ(via_tiled.size(), 1u);
  EXPECT_EQ(via_tiled[0].row, 40u);
  EXPECT_EQ(via_tiled[0].col, 23u);
  EXPECT_EQ(via_dense[0].row, via_tiled[0].row);
  EXPECT_EQ(via_dense[0].col, via_tiled[0].col);
  EXPECT_NEAR(via_dense[0].score, via_tiled[0].score, 1e-6);
  // And the classic wrapper still agrees.
  const auto classic = satvision::match_template(img, templ);
  ASSERT_EQ(classic.size(), 1u);
  EXPECT_EQ(classic[0].row, via_tiled[0].row);
}

// --- Recycled planes ----------------------------------------------------
// satutil::large_array parks freed blocks from 2 MiB up and hands each to
// the next request of its size, so a store of a repeated shape gets the
// planes of the store before it, stale values included. At 1000×1100 and
// W = 256 (20 slots of 256²) every residual plane is at least 2 MiB, and
// the clipped edge tiles leave stale values beyond their live region.

TEST(TiledResidual, RecycledPlanesStayExact) {
  using Enc = TiledSat<std::int64_t>::TileEnc;
  const std::size_t rows = 1000, cols = 1100, w = 256;
  {
    // Byte values: every tile-local range is past u16, so all in u32.
    const auto bytes = Matrix<std::int64_t>::random(rows, cols, 61, 0, 255);
    TiledSat<std::int64_t> t(rows, cols, w);
    encode(bytes, t, 3);
    for (std::size_t k = 0; k < t.tile_count(); ++k)
      ASSERT_EQ(t.enc(k), Enc::kU32) << "tile " << k;
  }
  // Tiles by (ti + tj) % 3: bits (u16), bytes (u32), and ~2^38 spikes
  // that overflow u32 (wide).
  Matrix<std::int64_t> in(rows, cols);
  satutil::Rng rng(62);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const std::size_t kind = (i / w + j / w) % 3;
      auto v = static_cast<std::int64_t>(rng.next_below(kind == 0 ? 2 : 256));
      if (kind == 2 && (i + j) % 7 == 0) v += std::int64_t{1} << 38;
      in(i, j) = v;
    }
  TiledSat<std::int64_t> t(rows, cols, w);
  encode(in, t, 3);
  std::size_t per_enc[4] = {};
  for (std::size_t k = 0; k < t.tile_count(); ++k)
    ++per_enc[static_cast<std::size_t>(t.enc(k))];
  EXPECT_GT(per_enc[static_cast<std::size_t>(Enc::kU16)], 0u);
  EXPECT_GT(per_enc[static_cast<std::size_t>(Enc::kU32)], 0u);
  EXPECT_GT(per_enc[static_cast<std::size_t>(Enc::kWide)], 0u);
  const auto oracle = oracle_i64(in);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      ASSERT_EQ(t.value(i, j), oracle(i, j)) << i << "," << j;
  for (const Rect& r : random_rects(rows, cols, 500, 63))
    ASSERT_EQ(sat::region_sum(t, r), sat::region_sum(oracle, r));
}

// The same for TiledSat<double>, through two TiledMomentTables builds. The
// second image's values are 0..3, so every tile-local sum and sum of
// squares is an integer below 2^24: exact in the f32 plane, and so
// comparable bit for bit with the i64 oracles.
TEST(TiledResidual, RecycledMomentTablesStayExact) {
  const std::size_t rows = 1000, cols = 1100;
  (void)satvision::TiledMomentTables::build(
      Matrix<std::int32_t>::random(rows, cols, 71, 0, 255));
  const auto in = Matrix<std::int32_t>::random(rows, cols, 72, 0, 3);
  Matrix<std::int32_t> sq(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) sq(i, j) = in(i, j) * in(i, j);
  const auto t = satvision::TiledMomentTables::build(in);
  const auto sum = oracle_i64(in), sum_sq = oracle_i64(sq);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(t.sum.value(i, j), static_cast<double>(sum(i, j)))
          << i << "," << j;
      ASSERT_EQ(t.sum_sq.value(i, j), static_cast<double>(sum_sq(i, j)))
          << i << "," << j;
    }
  for (const Rect& r : random_rects(rows, cols, 500, 73)) {
    ASSERT_EQ(sat::region_sum(t.sum, r),
              static_cast<double>(sat::region_sum(sum, r)));
    ASSERT_EQ(sat::region_sum(t.sum_sq, r),
              static_cast<double>(sat::region_sum(sum_sq, r)));
  }
}

// A 1500² i32 store (9 MB) is past kStreamMinBytes, so its full 256-wide
// tiles take the streamed SIMD pack, while the last tile column,
// 220 wide (not a multiple of 16), takes the scalar pack beside them.
// Bit-valued tiles on the left stay in u16 (a tile-local SAT of 256² bits
// stays below 2^16; on all-zero tiles packus would hide a bias off by one
// as 0), byte-valued tiles on the right go to u32.
TEST(TiledResidual, StreamedPacksStayExact) {
  using Enc = TiledSat<std::int32_t>::TileEnc;
  const std::size_t n = 1500, w = 256;
  ASSERT_GE(n * n * sizeof(std::int32_t), sathost::kStreamMinBytes);
  Matrix<std::int32_t> in(n, n);
  satutil::Rng rng(81);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      in(i, j) = static_cast<std::int32_t>(rng.next_below(j < 2 * w ? 2 : 256));
  TiledSat<std::int32_t> t(n, n, w);
  encode(in, t, 3);
  for (std::size_t ti = 0; ti < t.tile_rows(); ++ti)
    for (std::size_t tj = 0; tj < t.tile_cols(); ++tj)
      ASSERT_EQ(t.enc(t.tile_index(ti, tj)), tj < 2 ? Enc::kU16 : Enc::kU32)
          << ti << "," << tj;
  const auto oracle = oracle_i64(in);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(t.value(i, j), oracle(i, j)) << i << "," << j;
  for (const Rect& r : random_rects(n, n, 500, 82))
    ASSERT_EQ(sat::region_sum(t, r), sat::region_sum(oracle, r));
}

// --- API plumbing -------------------------------------------------------

TEST(StorageApi, ComputeSatTiledKeepsCompressedForm) {
  const std::size_t n = 600;  // 3×3 tiles at the default width, ragged
  const auto in = Matrix<std::int32_t>::random(n, n, 51, 0, 200);
  const auto oracle = oracle_i64(in);
  sat::Options o;
  o.cpu_threads = 2;
  const auto r = sat::compute_sat_tiled(in, o);
  EXPECT_EQ(r.table.tile_w(), sat::kDefaultResidualTileW);
  for (const Rect& rect : random_rects(n, n, 100, 3))
    ASSERT_EQ(sat::region_sum(r.table, rect), sat::region_sum(oracle, rect));
}

TEST(StorageApi, KahanStorageRequiresFloatAndStaysClose) {
  const std::size_t n = 128;
  const auto in = Matrix<float>::random(n, n, 77, 0.0f, 255.0f);
  const auto oracle = [&] {
    Matrix<double> wide(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        wide(i, j) = static_cast<double>(in(i, j));
    Matrix<double> out(n, n);
    sathost::sat_sequential<double>(wide.view(), out.view());
    return out;
  }();
  sat::Options o;
  o.cpu_threads = 2;
  o.storage = sat::Storage::kKahanF32;
  const auto r = sat::compute_sat(in, o);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double rel = std::abs(r.table(i, j) - oracle(i, j)) /
                         std::max(1.0, std::abs(oracle(i, j)));
      ASSERT_LT(rel, 1e-6) << i << "," << j;
    }
  // Integral input must be rejected.
  const auto bad = Matrix<std::int32_t>::random(8, 8, 1, 0, 5);
  sat::Options ob = o;
  EXPECT_THROW((void)sat::compute_sat(bad, ob), satutil::CheckError);
}

}  // namespace
