// satsimd — a portable fixed-width SIMD layer for the host SAT engine.
//
// One vector type, `satsimd::Vec<T>`, with exactly the operations a summed
// area table needs: load/store at any address, lane-wise add and subtract
// (the Kahan-compensated kernels need `(t − s) − y`), broadcast, an
// in-register inclusive scan (log-step shift-add), and extraction of the
// last lane (the scan's carry-out).
//
// Dispatch is at compile time, selected by the SATLIB_SIMD build option and
// the target ISA:
//   - AVX2  → 256-bit vectors (float/int32/uint32 ×8, double ×4)
//   - else  → a generic fixed-width-4 array implementation that any
//             arithmetic element type (e.g. int64) also falls back to.
// The generic path is always well-defined, so algorithm code is written once
// against Vec<T> and never branches on the backend.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(SATLIB_SIMD) && defined(__AVX2__)
#define SATSIMD_BACKEND_AVX2 1
#include <immintrin.h>
#endif

namespace satsimd {

#if defined(SATSIMD_BACKEND_AVX2)
inline constexpr bool kVectorized = true;
[[nodiscard]] inline const char* backend_name() { return "avx2"; }
#else
inline constexpr bool kVectorized = false;
[[nodiscard]] inline const char* backend_name() { return "scalar"; }
#endif

/// Hints the hardware to fetch the cache line containing `p`. Streaming
/// kernels issue this a few KiB ahead of the load cursor; single-core
/// sustained read bandwidth roughly doubles on typical server parts.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Orders non-temporal stores (Vec::store_stream) before any later store.
/// Call once after a streaming kernel finishes; no-op on the scalar backend.
inline void store_fence() {
#if defined(SATSIMD_BACKEND_AVX2)
  _mm_sfence();
#endif
}

/// Generic fallback: a width-4 register modeled as a plain array. Used for
/// every element type without a native specialization (and for all types
/// when SATLIB_SIMD is off); simple enough for compilers to auto-vectorize.
template <class T>
struct Vec {
  static constexpr std::size_t width = 4;
  T lane[width];

  [[nodiscard]] static Vec zero() { return broadcast(T{}); }
  [[nodiscard]] static Vec broadcast(T x) {
    Vec v;
    for (std::size_t k = 0; k < width; ++k) v.lane[k] = x;
    return v;
  }
  [[nodiscard]] static Vec load(const T* p) {
    Vec v;
    for (std::size_t k = 0; k < width; ++k) v.lane[k] = p[k];
    return v;
  }
  void store(T* p) const {
    for (std::size_t k = 0; k < width; ++k) p[k] = lane[k];
  }
  /// Non-temporal store on native backends (requires width*sizeof(T)
  /// alignment there); a plain store here.
  void store_stream(T* p) const { store(p); }

  [[nodiscard]] friend Vec operator+(Vec a, Vec b) {
    Vec v;
    for (std::size_t k = 0; k < width; ++k) v.lane[k] = a.lane[k] + b.lane[k];
    return v;
  }
  Vec& operator+=(Vec b) { return *this = *this + b; }
  [[nodiscard]] friend Vec operator-(Vec a, Vec b) {
    Vec v;
    for (std::size_t k = 0; k < width; ++k) v.lane[k] = a.lane[k] - b.lane[k];
    return v;
  }

  /// Inclusive prefix sum across the lanes.
  [[nodiscard]] Vec inclusive_scan() const {
    Vec v;
    T run{};
    for (std::size_t k = 0; k < width; ++k) {
      run += lane[k];
      v.lane[k] = run;
    }
    return v;
  }
  /// Sum of all lanes, broadcast to every lane. The carry-chain primitive:
  /// unlike inclusive_scan().last(), the total of the *input* vector does
  /// not depend on the scan, so the row kernels keep it off the
  /// loop-carried dependency path.
  [[nodiscard]] Vec sum_broadcast() const {
    T total{};
    for (std::size_t k = 0; k < width; ++k) total += lane[k];
    return broadcast(total);
  }
  [[nodiscard]] T last() const { return lane[width - 1]; }
};

#if defined(SATSIMD_BACKEND_AVX2)

template <>
struct Vec<float> {
  static constexpr std::size_t width = 8;
  __m256 r;

  [[nodiscard]] static Vec zero() { return {_mm256_setzero_ps()}; }
  [[nodiscard]] static Vec broadcast(float x) { return {_mm256_set1_ps(x)}; }
  [[nodiscard]] static Vec load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, r); }
  void store_stream(float* p) const { _mm256_stream_ps(p, r); }

  [[nodiscard]] friend Vec operator+(Vec a, Vec b) {
    return {_mm256_add_ps(a.r, b.r)};
  }
  Vec& operator+=(Vec b) { return *this = *this + b; }
  [[nodiscard]] friend Vec operator-(Vec a, Vec b) {
    return {_mm256_sub_ps(a.r, b.r)};
  }

  [[nodiscard]] Vec inclusive_scan() const {
    // Log-step shift-add within each 128-bit half, then carry the low
    // half's total into the high half.
    __m256 x = r;
    x = _mm256_add_ps(x, _mm256_castsi256_ps(_mm256_slli_si256(
                             _mm256_castps_si256(x), 4)));
    x = _mm256_add_ps(x, _mm256_castsi256_ps(_mm256_slli_si256(
                             _mm256_castps_si256(x), 8)));
    const __m128 lo = _mm256_castps256_ps128(x);
    const __m128 lo_total = _mm_shuffle_ps(lo, lo, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256 carry =
        _mm256_insertf128_ps(_mm256_setzero_ps(), lo_total, 1);
    return {_mm256_add_ps(x, carry)};
  }
  [[nodiscard]] Vec sum_broadcast() const {
    // Butterfly reduction: every step uses full-width adds, so all eight
    // lanes end up holding the total.
    __m256 t = _mm256_add_ps(r, _mm256_permute2f128_ps(r, r, 1));
    t = _mm256_add_ps(t, _mm256_shuffle_ps(t, t, _MM_SHUFFLE(1, 0, 3, 2)));
    t = _mm256_add_ps(t, _mm256_shuffle_ps(t, t, _MM_SHUFFLE(2, 3, 0, 1)));
    return {t};
  }
  [[nodiscard]] float last() const {
    const __m128 hi = _mm256_extractf128_ps(r, 1);
    return _mm_cvtss_f32(_mm_shuffle_ps(hi, hi, _MM_SHUFFLE(3, 3, 3, 3)));
  }
};

template <>
struct Vec<double> {
  static constexpr std::size_t width = 4;
  __m256d r;

  [[nodiscard]] static Vec zero() { return {_mm256_setzero_pd()}; }
  [[nodiscard]] static Vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
  [[nodiscard]] static Vec load(const double* p) {
    return {_mm256_loadu_pd(p)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, r); }
  void store_stream(double* p) const { _mm256_stream_pd(p, r); }

  [[nodiscard]] friend Vec operator+(Vec a, Vec b) {
    return {_mm256_add_pd(a.r, b.r)};
  }
  Vec& operator+=(Vec b) { return *this = *this + b; }
  [[nodiscard]] friend Vec operator-(Vec a, Vec b) {
    return {_mm256_sub_pd(a.r, b.r)};
  }

  [[nodiscard]] Vec inclusive_scan() const {
    __m256d x = r;
    x = _mm256_add_pd(x, _mm256_castsi256_pd(_mm256_slli_si256(
                             _mm256_castpd_si256(x), 8)));
    const __m128d lo = _mm256_castpd256_pd128(x);
    const __m128d lo_total = _mm_unpackhi_pd(lo, lo);
    const __m256d carry =
        _mm256_insertf128_pd(_mm256_setzero_pd(), lo_total, 1);
    return {_mm256_add_pd(x, carry)};
  }
  [[nodiscard]] Vec sum_broadcast() const {
    __m256d t = _mm256_add_pd(r, _mm256_permute2f128_pd(r, r, 1));
    t = _mm256_add_pd(t, _mm256_shuffle_pd(t, t, 0x5));
    return {t};
  }
  [[nodiscard]] double last() const {
    const __m128d hi = _mm256_extractf128_pd(r, 1);
    return _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  }
};

namespace detail {
/// Shared 8×32-bit integer implementation (add wraps, so the same intrinsics
/// serve both signednesses).
struct VecI32x8 {
  __m256i r;

  [[nodiscard]] static __m256i scan(__m256i x) {
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    const __m128i lo = _mm256_castsi256_si128(x);
    const __m128i lo_total = _mm_shuffle_epi32(lo, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256i carry =
        _mm256_inserti128_si256(_mm256_setzero_si256(), lo_total, 1);
    return _mm256_add_epi32(x, carry);
  }
  [[nodiscard]] static std::int32_t last_lane(__m256i x) {
    const __m128i hi = _mm256_extracti128_si256(x, 1);
    return _mm_cvtsi128_si32(_mm_shuffle_epi32(hi, _MM_SHUFFLE(3, 3, 3, 3)));
  }
  [[nodiscard]] static __m256i sum_all(__m256i x) {
    __m256i t = _mm256_add_epi32(x, _mm256_permute2x128_si256(x, x, 1));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, _MM_SHUFFLE(1, 0, 3, 2)));
    t = _mm256_add_epi32(t, _mm256_shuffle_epi32(t, _MM_SHUFFLE(2, 3, 0, 1)));
    return t;
  }
};
}  // namespace detail

#define SATSIMD_DEFINE_I32X8(T)                                               \
  template <>                                                                 \
  struct Vec<T> {                                                             \
    static constexpr std::size_t width = 8;                                   \
    __m256i r;                                                                \
    [[nodiscard]] static Vec zero() { return {_mm256_setzero_si256()}; }      \
    [[nodiscard]] static Vec broadcast(T x) {                                 \
      return {_mm256_set1_epi32(static_cast<std::int32_t>(x))};               \
    }                                                                         \
    [[nodiscard]] static Vec load(const T* p) {                               \
      return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};      \
    }                                                                         \
    void store(T* p) const {                                                  \
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), r);                  \
    }                                                                         \
    void store_stream(T* p) const {                                           \
      _mm256_stream_si256(reinterpret_cast<__m256i*>(p), r);                  \
    }                                                                         \
    [[nodiscard]] friend Vec operator+(Vec a, Vec b) {                        \
      return {_mm256_add_epi32(a.r, b.r)};                                    \
    }                                                                         \
    Vec& operator+=(Vec b) { return *this = *this + b; }                      \
    [[nodiscard]] Vec inclusive_scan() const {                                \
      return {detail::VecI32x8::scan(r)};                                     \
    }                                                                         \
    [[nodiscard]] Vec sum_broadcast() const {                                 \
      return {detail::VecI32x8::sum_all(r)};                                  \
    }                                                                         \
    [[nodiscard]] T last() const {                                            \
      return static_cast<T>(detail::VecI32x8::last_lane(r));                  \
    }                                                                         \
  };

SATSIMD_DEFINE_I32X8(std::int32_t)
SATSIMD_DEFINE_I32X8(std::uint32_t)
#undef SATSIMD_DEFINE_I32X8

#endif  // backend

}  // namespace satsimd
