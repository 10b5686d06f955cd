// Vectorized host SAT kernels built on satsimd::Vec (util/simd.hpp).
//
// Two layers:
//   - the fused row steps: simd_row_scan_acc / simd_row_scan_acc4 scan one
//     or four rows per pass over an L1-resident column accumulator (the
//     register-level analog of §II Step 2: in-register log-step scans
//     chained by a broadcast carry); kahan_row_scan_acc is the compensated
//     form for Storage::kKahanF32. The SKSS-LB engine (sat_skss_lb.hpp)
//     stores its tiles through simd_row_scan_acc[4], and simd_row_reduce
//     is its look-back path's read-only reduce.
//   - sat_simd / sat_kahan: the paper's two passes fused into one
//     streaming sweep. An L1-resident accumulator row is the column-carry
//     vector, a broadcast register is the row-carry vector, src is
//     prefetched ahead of the load cursor, and dst leaves through
//     non-temporal stores — each element is loaded once and stored once,
//     with no read-for-ownership traffic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/registry.hpp"
#include "util/simd.hpp"
#include "util/span2d.hpp"

namespace sathost {

/// Bytes of lookahead for the software prefetch in the streaming kernel.
/// Tuned on a Xeon with ~10 GB/s single-core demand-read bandwidth: 4 KiB
/// ahead roughly covers the DRAM latency at the kernel's consumption rate.
inline constexpr std::size_t kPrefetchAheadBytes = 4096;

/// Output size below which sat_simd keeps regular stores: a dst this small
/// is usually consumed straight from cache, where non-temporal stores (which
/// push it to DRAM) lose more than the saved read-for-ownership gains.
inline constexpr std::size_t kStreamMinBytes = std::size_t{8} << 20;

/// The fused row step of sat_simd: dst[j] = acc[j] + (carry-seeded scan of
/// src)[j], with `acc` (the running column-prefix row, i.e. the previous dst
/// row) updated in place. Returns the row-carry-out.
///
/// When `dst` sits on a vector boundary the interior is written with
/// non-temporal stores — dst is never read back (acc carries the vertical
/// state in L1), so parking it in cache would only burn read-for-ownership
/// bandwidth. Regular and streaming stores are never mixed inside one
/// vector span: a partially written write-combining line degrades to a
/// read-modify-write of DRAM, which is why the alignment decision is made
/// once per call instead of peeling per call. Callers that may have
/// streamed must issue satsimd::store_fence() afterwards.
template <class T>
T simd_row_scan_acc(const T* src, T* acc, T* dst, std::size_t n,
                    T carry = T{}, bool allow_stream = true) {
  using V = satsimd::Vec<T>;
  std::size_t j = 0;
  if (n >= V::width) {
    V vcarry = V::broadcast(carry);
    const bool stream =
        allow_stream &&
        reinterpret_cast<std::uintptr_t>(dst) % (V::width * sizeof(T)) == 0;
    auto loop = [&](auto streamed) {
      for (; j + V::width <= n; j += V::width) {
        satsimd::prefetch(reinterpret_cast<const char*>(src + j) +
                          kPrefetchAheadBytes);
        const V x = V::load(src + j);
        const V out = x.inclusive_scan() + vcarry + V::load(acc + j);
        if constexpr (decltype(streamed)::value) out.store_stream(dst + j);
        else out.store(dst + j);
        out.store(acc + j);
        vcarry += x.sum_broadcast();
      }
    };
    if (stream) loop(std::true_type{});
    else loop(std::false_type{});
    carry = vcarry.last();
  }
  for (; j < n; ++j) {
    carry += src[j];
    dst[j] = acc[j] = carry + acc[j];
  }
  return carry;
}

/// Kahan-compensated variant of simd_row_scan_acc for floating-point
/// tables (Storage::kKahanF32). The horizontal prefix within the row is a
/// plain carry-seeded scan (its chains are short and restart every row);
/// what Kahan protects is the COLUMN accumulation — the n-long running sum
/// in `acc` that destroys f32 exactness past ~2^24 (see docs/host_engine.md,
/// "Storage modes"). Per column j the row's prefix value v is folded in as
///   y = v − comp[j]; t = acc[j] + y; comp[j] = (t − acc[j]) − y; acc[j] = t
/// so the low-order bits lost by each add are carried forward in `comp`
/// instead of discarded. dst[j] receives t. Returns the row carry-out.
/// Same streaming/WC-line rule as simd_row_scan_acc. Requires a build
/// without value-unsafe FP optimizations (-ffast-math would erase comp).
template <class T>
T kahan_row_scan_acc(const T* src, T* acc, T* comp, T* dst, std::size_t n,
                     T carry = T{}, bool allow_stream = true) {
  static_assert(std::is_floating_point_v<T>,
                "Kahan compensation only applies to floating-point tables");
  using V = satsimd::Vec<T>;
  std::size_t j = 0;
  if (n >= V::width) {
    V vcarry = V::broadcast(carry);
    const bool stream =
        allow_stream &&
        reinterpret_cast<std::uintptr_t>(dst) % (V::width * sizeof(T)) == 0;
    auto loop = [&](auto streamed) {
      for (; j + V::width <= n; j += V::width) {
        satsimd::prefetch(reinterpret_cast<const char*>(src + j) +
                          kPrefetchAheadBytes);
        const V x = V::load(src + j);
        const V row = x.inclusive_scan() + vcarry;
        const V s = V::load(acc + j);
        const V y = row - V::load(comp + j);
        const V t = s + y;
        ((t - s) - y).store(comp + j);
        t.store(acc + j);
        if constexpr (decltype(streamed)::value) t.store_stream(dst + j);
        else t.store(dst + j);
        vcarry += x.sum_broadcast();
      }
    };
    if (stream) loop(std::true_type{});
    else loop(std::false_type{});
    carry = vcarry.last();
  }
  for (; j < n; ++j) {
    carry += src[j];
    const T y = carry - comp[j];
    const T t = acc[j] + y;
    comp[j] = (t - acc[j]) - y;
    acc[j] = t;
    dst[j] = t;
  }
  return carry;
}

/// Register-blocked 4-row variant of simd_row_scan_acc: four source rows
/// advance through one accumulator row in a single sweep, so the column
/// carry flows r0 → r1 → r2 → r3 through registers and `acc` is loaded and
/// stored once per four output rows instead of once per row. The four
/// horizontal carry chains are independent, which also covers the scan's
/// latency. Association order is identical to four successive
/// simd_row_scan_acc calls — results are bit-equal, not just close.
/// `carries[0..3]` are the per-row carry-ins and receive the carry-outs.
/// Streaming applies only when every dst row shares vector alignment
/// (stride a multiple of the vector width); same WC-line rule as the 1-row
/// kernel. Unlike the 1-row kernel it has no software prefetch: the
/// SKSS-LB engine sweeps tiles as short as 1–2 KiB per row, where a fixed
/// lookahead lands on lines of a tile two or more to the right, and the
/// hardware prefetchers follow the four row streams on their own.
template <class T>
void simd_row_scan_acc4(const T* const src[4], T* acc, T* const dst[4],
                        std::size_t n, T carries[4],
                        bool allow_stream = true) {
  using V = satsimd::Vec<T>;
  std::size_t j = 0;
  if (n >= V::width) {
    V v0 = V::broadcast(carries[0]), v1 = V::broadcast(carries[1]);
    V v2 = V::broadcast(carries[2]), v3 = V::broadcast(carries[3]);
    const bool stream =
        allow_stream &&
        reinterpret_cast<std::uintptr_t>(dst[0]) % (V::width * sizeof(T)) ==
            0 &&
        reinterpret_cast<std::uintptr_t>(dst[1]) % (V::width * sizeof(T)) ==
            0;
    auto loop = [&](auto streamed) {
      for (; j + V::width <= n; j += V::width) {
        const V x0 = V::load(src[0] + j), x1 = V::load(src[1] + j);
        const V x2 = V::load(src[2] + j), x3 = V::load(src[3] + j);
        const V o0 = x0.inclusive_scan() + v0 + V::load(acc + j);
        const V o1 = x1.inclusive_scan() + v1 + o0;
        const V o2 = x2.inclusive_scan() + v2 + o1;
        const V o3 = x3.inclusive_scan() + v3 + o2;
        if constexpr (decltype(streamed)::value) {
          o0.store_stream(dst[0] + j);
          o1.store_stream(dst[1] + j);
          o2.store_stream(dst[2] + j);
          o3.store_stream(dst[3] + j);
        } else {
          o0.store(dst[0] + j);
          o1.store(dst[1] + j);
          o2.store(dst[2] + j);
          o3.store(dst[3] + j);
        }
        o3.store(acc + j);
        v0 += x0.sum_broadcast();
        v1 += x1.sum_broadcast();
        v2 += x2.sum_broadcast();
        v3 += x3.sum_broadcast();
      }
    };
    if (stream) loop(std::true_type{});
    else loop(std::false_type{});
    carries[0] = v0.last();
    carries[1] = v1.last();
    carries[2] = v2.last();
    carries[3] = v3.last();
  }
  for (; j < n; ++j) {
    carries[0] += src[0][j];
    carries[1] += src[1][j];
    carries[2] += src[2][j];
    carries[3] += src[3][j];
    const T o0 = acc[j] + carries[0];
    const T o1 = o0 + carries[1];
    const T o2 = o1 + carries[2];
    const T o3 = o2 + carries[3];
    dst[0][j] = o0;
    dst[1][j] = o1;
    dst[2][j] = o2;
    dst[3][j] = acc[j] = o3;
  }
}

/// The reduce step of a look-back tile: adds row src[0, n) into the column
/// sums `acc` and returns the row's total. src is only read, and nothing
/// but `acc` is written. The total is summed lane-wise and reduced once at
/// the end, so for floating T it associates differently from the scan
/// kernels' carry.
template <class T>
T simd_row_reduce(const T* src, T* acc, std::size_t n) {
  using V = satsimd::Vec<T>;
  std::size_t j = 0;
  V total = V::zero();
  for (; j + V::width <= n; j += V::width) {
    const V x = V::load(src + j);
    (V::load(acc + j) + x).store(acc + j);
    total += x;
  }
  T sum = total.sum_broadcast().last();
  for (; j < n; ++j) {
    sum += src[j];
    acc[j] += src[j];
  }
  return sum;
}

namespace detail {

/// Elements of `row` before its first vector boundary, at most `cols`:
/// the scalar head sat_simd and sat_kahan peel so the rest of the row
/// starts aligned and can stream.
template <class T>
std::size_t head_peel(const T* row, std::size_t cols) {
  constexpr std::size_t vec_bytes = satsimd::Vec<T>::width * sizeof(T);
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(row) % vec_bytes;
  if (mis == 0 || mis % sizeof(T) != 0) return 0;
  return std::min((vec_bytes - mis) / sizeof(T), cols);
}

}  // namespace detail

/// Single-pass vectorized SAT: both passes of Figure 2 fused into one sweep.
/// `acc` is the column-carry vector (the previous dst row, kept hot in L1),
/// the in-register broadcast carry is the row-carry vector, and dst streams
/// out through non-temporal stores — every matrix element is loaded exactly
/// once and stored exactly once, with no read-for-ownership on dst. Each
/// row is a scalar head peel (shorter than one vector) and then one
/// simd_row_scan_acc call. `src` and `dst` must have identical shape and
/// must not alias. When `reg` is non-null the sweep publishes
/// host.simd.elements and the analytically derived
/// host.simd.lane_utilization_pct (share of elements processed in full
/// vectors vs. head-peel/tail scalar iterations).
template <class T>
void sat_simd(satutil::Span2d<const T> src, satutil::Span2d<T> dst,
              obs::Registry* reg = nullptr) {
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  if (rows == 0 || cols == 0) return;

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;
  std::vector<T> acc(cols, T{});
  std::size_t vec_elems = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const T* s = &src(i, 0);
    T* d = &dst(i, 0);
    const std::size_t j0 = detail::head_peel(d, cols);
    const T carry = simd_row_scan_acc(s, acc.data(), d, j0);
    const std::size_t nc = cols - j0;
    vec_elems += nc - nc % satsimd::Vec<T>::width;
    simd_row_scan_acc(s + j0, acc.data() + j0, d + j0, nc, carry,
                      allow_stream);
  }
  satsimd::store_fence();
  if (reg != nullptr) {
    const std::size_t total = rows * cols;
    reg->counter("host.simd.elements").add(total);
    reg->gauge("host.simd.lane_utilization_pct")
        .set(100.0 * static_cast<double>(vec_elems) /
             static_cast<double>(total));
  }
}

/// sat_simd with a Kahan-compensated column accumulator (Storage::kKahanF32):
/// identical streaming structure, but the L1-resident state is two rows —
/// the running column sums and their compensation terms — and each row is
/// the head peel and then one kahan_row_scan_acc call. Floating T only.
template <class T>
void sat_kahan(satutil::Span2d<const T> src, satutil::Span2d<T> dst,
               obs::Registry* reg = nullptr) {
  static_assert(std::is_floating_point_v<T>,
                "Storage::kKahanF32 requires a floating-point table");
  SAT_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  if (rows == 0 || cols == 0) return;

  const bool allow_stream = rows * cols * sizeof(T) >= kStreamMinBytes;
  std::vector<T> acc(cols, T{});
  std::vector<T> comp(cols, T{});
  std::size_t vec_elems = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const T* s = &src(i, 0);
    T* d = &dst(i, 0);
    const std::size_t j0 = detail::head_peel(d, cols);
    const T carry = kahan_row_scan_acc(s, acc.data(), comp.data(), d, j0);
    const std::size_t nc = cols - j0;
    vec_elems += nc - nc % satsimd::Vec<T>::width;
    kahan_row_scan_acc(s + j0, acc.data() + j0, comp.data() + j0, d + j0, nc,
                       carry, allow_stream);
  }
  satsimd::store_fence();
  if (reg != nullptr) {
    const std::size_t total = rows * cols;
    reg->counter("host.simd.elements").add(total);
    reg->gauge("host.simd.lane_utilization_pct")
        .set(100.0 * static_cast<double>(vec_elems) /
             static_cast<double>(total));
  }
}

}  // namespace sathost
