// Tests for the portable SIMD layer (util/simd.hpp) and the row-scan
// kernels built on it (host/sat_simd.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "host/sat_simd.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

template <class T>
class SimdVec : public ::testing::Test {};

using VecTypes =
    ::testing::Types<float, double, std::int32_t, std::uint32_t, std::int64_t>;
TYPED_TEST_SUITE(SimdVec, VecTypes);

/// Random *integer-valued* elements of T: small integers are exactly
/// representable in every tested type, so sums are independent of
/// association and the SIMD log-step scan must match bit-for-bit.
template <class T>
std::vector<T> random_values(std::size_t n, std::uint64_t seed, int lo,
                             int hi) {
  satutil::Rng rng(seed);
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(rng.uniform<int>(lo, hi));
  return v;
}

TYPED_TEST(SimdVec, LoadStoreRoundTripUnaligned) {
  using V = satsimd::Vec<TypeParam>;
  // Offset the base by one element so the load is genuinely unaligned.
  std::vector<TypeParam> buf(V::width + 1), out(V::width + 1);
  for (std::size_t k = 0; k < buf.size(); ++k)
    buf[k] = static_cast<TypeParam>(k + 1);
  V::load(buf.data() + 1).store(out.data() + 1);
  for (std::size_t k = 1; k < buf.size(); ++k) EXPECT_EQ(out[k], buf[k]);
}

TYPED_TEST(SimdVec, LoadStoreRoundTripAligned) {
  // load/store take any address; a cache-line-aligned one is the common
  // case for the engines' arena rows.
  using V = satsimd::Vec<TypeParam>;
  alignas(64) TypeParam buf[V::width];
  alignas(64) TypeParam out[V::width];
  for (std::size_t k = 0; k < V::width; ++k)
    buf[k] = static_cast<TypeParam>(3 * k + 2);
  V::load(buf).store(out);
  for (std::size_t k = 0; k < V::width; ++k) EXPECT_EQ(out[k], buf[k]);
}

TYPED_TEST(SimdVec, AddAndBroadcast) {
  using V = satsimd::Vec<TypeParam>;
  std::vector<TypeParam> a(V::width), out(V::width);
  for (std::size_t k = 0; k < V::width; ++k)
    a[k] = static_cast<TypeParam>(k + 1);
  V v = V::load(a.data()) + V::broadcast(static_cast<TypeParam>(10));
  v += V::zero();
  v.store(out.data());
  for (std::size_t k = 0; k < V::width; ++k)
    EXPECT_EQ(out[k], static_cast<TypeParam>(k + 11));
}

TYPED_TEST(SimdVec, InclusiveScanMatchesStdInclusiveScan) {
  using V = satsimd::Vec<TypeParam>;
  // Small integer values: every partial sum is exactly representable in
  // float too, so the log-step association cannot change the result.
  const auto in = random_values<TypeParam>(V::width, 99, 0, 9);
  std::vector<TypeParam> expect(V::width), got(V::width);
  std::inclusive_scan(in.begin(), in.end(), expect.begin());
  const V s = V::load(in.data()).inclusive_scan();
  s.store(got.data());
  for (std::size_t k = 0; k < V::width; ++k) EXPECT_EQ(got[k], expect[k]);
  EXPECT_EQ(s.last(), expect.back());
}

TYPED_TEST(SimdVec, RowScanMatchesStdInclusiveScanAllLengths) {
  // Property test over every remainder case around the vector width, with
  // a carry seed, through the engine's fused row step: a zeroed
  // accumulator row reduces it to a plain inclusive scan, and the
  // accumulator must come back holding the output row.
  for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 5ul, 7ul, 8ul, 9ul, 15ul, 16ul,
                        17ul, 31ul, 33ul, 100ul, 257ul}) {
    const auto in =
        random_values<TypeParam>(n, 1000 + n, 0, 9);
    std::vector<TypeParam> expect(n);
    std::inclusive_scan(in.begin(), in.end(), expect.begin(),
                        std::plus<>{}, TypeParam{7});
    std::vector<TypeParam> got(n), acc(n, TypeParam{});
    const TypeParam carry = sathost::simd_row_scan_acc(
        in.data(), acc.data(), got.data(), n, TypeParam{7});
    satsimd::store_fence();
    EXPECT_EQ(got, expect) << "n=" << n;
    EXPECT_EQ(acc, expect) << "n=" << n;
    EXPECT_EQ(carry, n == 0 ? TypeParam{7} : expect.back()) << "n=" << n;
  }
}

TEST(SimdBackend, ReportsAName) {
  EXPECT_NE(satsimd::backend_name(), nullptr);
#if defined(SATLIB_SIMD) && defined(__AVX2__)
  EXPECT_STREQ(satsimd::backend_name(), "avx2");
  EXPECT_TRUE(satsimd::kVectorized);
  EXPECT_EQ(satsimd::Vec<float>::width, 8u);
#else
  EXPECT_STREQ(satsimd::backend_name(), "scalar");
  EXPECT_FALSE(satsimd::kVectorized);
#endif
}

}  // namespace
