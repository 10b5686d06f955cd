// Unit tests for the util module: Span2d, Rng, formatting, argparse,
// large_array and its recycling of freed huge blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "host/thread_pool.hpp"
#include "util/argparse.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/large_alloc.hpp"
#include "util/rng.hpp"
#include "util/span2d.hpp"

namespace {

using satutil::Align;
using satutil::ArgParser;
using satutil::Rng;
using satutil::Span2d;
using satutil::TextTable;

std::uintptr_t address_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

constexpr std::size_t kHuge = satutil::kHugePageBytes;

// First in the file on purpose: its first block must be fresh. The tests
// below free blocks to glibc, which raises its mmap threshold when a
// mapped block is freed, so a later 8 MiB block could come from the heap
// already faulted in, recycled or not.
TEST(LargeArray, RewritingARecycledBlockFaultsLessThanFirstTouch) {
#if defined(__linux__)
  constexpr std::size_t kBytes = 4 * kHuge;  // 8 MiB
  auto minor_faults = [] {
    rusage u{};
    getrusage(RUSAGE_THREAD, &u);
    return u.ru_minflt;
  };
  auto touch = [&](satutil::LargeArray<std::uint8_t>& a) {
    const long before = minor_faults();
    std::memset(a.get(), 0x5a, kBytes);
    const long faults = minor_faults() - before;
    EXPECT_EQ(a[kBytes - 1], 0x5a);
    return faults;
  };
  auto a = satutil::large_array<std::uint8_t>(kBytes);
  const long first = touch(a);
  a.reset();  // parked
  auto b = satutil::large_array<std::uint8_t>(kBytes);
  const long again = touch(b);
  EXPECT_LT(again, first) << "first touch " << first << " faults, rewrite "
                          << again;
#else
  GTEST_SKIP() << "minor-fault counts are read on Linux only";
#endif
}

TEST(LargeArray, FreedHugeBlockOfTheSameRoundedSizeComesBack) {
  auto a = satutil::large_array<std::uint32_t>(4 * kHuge / 4);
  const void* at = a.get();
  a.reset();
  // Another element type and a count that rounds up to the same 8 MiB.
  const auto b = satutil::large_array<std::uint8_t>(3 * kHuge + 1);
  EXPECT_EQ(b.get(), at);
  EXPECT_EQ(b.get_deleter().bytes, 4 * kHuge);
}

TEST(LargeArray, OtherSizesAndSmallBlocksNeverComeBack) {
  auto a = satutil::large_array<std::uint8_t>(2 * kHuge);
  const void* at = a.get();
  a.reset();
  // A parked block stays allocated, so a fresh block never shares its
  // address: neighbouring rounded sizes do not get it.
  {
    const auto smaller = satutil::large_array<std::uint8_t>(kHuge);
    const auto larger = satutil::large_array<std::uint8_t>(2 * kHuge + 1);
    EXPECT_NE(smaller.get(), at);
    EXPECT_NE(larger.get(), at);
  }
  EXPECT_EQ(satutil::large_array<std::uint8_t>(2 * kHuge).get(), at);

  // Fill the list with kMaxParkedBlocks blocks of one size, then free a
  // block just under 2 MiB: had it been parked, it would have released the
  // oldest of them.
  std::vector<satutil::LargeArray<std::uint8_t>> held;
  for (std::size_t k = 0; k < satutil::kMaxParkedBlocks; ++k)
    held.push_back(satutil::large_array<std::uint8_t>(kHuge));
  std::set<const void*> parked;
  for (const auto& h : held) parked.insert(h.get());
  held.clear();
  {
    const auto small = satutil::large_array<std::uint8_t>(kHuge - 1);
    EXPECT_EQ(small.get_deleter().align, 64u);
  }
  for (std::size_t k = 0; k < satutil::kMaxParkedBlocks; ++k) {
    held.push_back(satutil::large_array<std::uint8_t>(kHuge));
    EXPECT_EQ(parked.count(held.back().get()), 1u) << "block " << k;
  }
}

TEST(LargeArray, AFullListReleasesTheOldestBlock) {
  constexpr std::size_t kCap = satutil::kMaxParkedBlocks;
  std::vector<satutil::LargeArray<std::uint8_t>> held;
  std::vector<const void*> at;
  for (std::size_t k = 0; k <= kCap; ++k) {
    held.push_back(satutil::large_array<std::uint8_t>(kHuge));
    at.push_back(held.back().get());
  }
  for (auto& h : held) h.reset();  // at[0] is parked first
  held.clear();
  // Parking the last one released at[0]; the others come back newest
  // first.
  for (std::size_t k = kCap; k >= 1; --k) {
    held.push_back(satutil::large_array<std::uint8_t>(kHuge));
    EXPECT_EQ(held.back().get(), at[k]) << "request " << kCap - k;
  }
}

TEST(LargeArray, ParkedBlocksArePoisonedUnderAsan) {
#if defined(SATUTIL_ASAN)
  auto a = satutil::large_array<std::uint8_t>(kHuge);
  a[0] = 1;
  const char* at = reinterpret_cast<const char*>(a.get());
  EXPECT_EQ(__asan_region_is_poisoned(a.get(), kHuge), nullptr);
  a.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(at));
  EXPECT_TRUE(__asan_address_is_poisoned(at + kHuge - 1));
  const auto b = satutil::large_array<std::uint8_t>(kHuge);
  ASSERT_EQ(reinterpret_cast<const char*>(b.get()), at);
  EXPECT_EQ(__asan_region_is_poisoned(b.get(), kHuge), nullptr);
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

// Pool threads take, fill, check and park same-size blocks at once; the
// thread sanitizer checks the hand-offs through the parked list.
TEST(LargeArray, PoolThreadsRecycleBlocksConcurrently) {
  constexpr std::size_t kWords = kHuge / sizeof(std::uint32_t);
  constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);  // one a line
  sathost::ThreadPool pool(4);
  std::atomic<std::size_t> bad{0};
  pool.parallel_for(64, [&](std::size_t k) {
    auto a = satutil::large_array<std::uint32_t>(kWords);
    const auto tag = static_cast<std::uint32_t>(k << 24);
    for (std::size_t i = 0; i < kWords; i += kStride)
      a[i] = tag | static_cast<std::uint32_t>(i / kStride);
    for (std::size_t i = 0; i < kWords; i += kStride)
      if (a[i] != (tag | static_cast<std::uint32_t>(i / kStride)))
        bad.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(bad.load(), 0u);
}

TEST(LargeArray, AlignmentFollowsSizeAndZeroIsEmpty) {
  // From 2 MiB up: 2 MiB-aligned; below: one cache line.
  const auto huge = satutil::large_array<float>(satutil::kHugePageBytes / 4);
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(address_of(huge.get()) % satutil::kHugePageBytes, 0u);
  EXPECT_EQ(huge.get_deleter().align, satutil::kHugePageBytes);
  const auto odd = satutil::large_array<std::uint16_t>(3'000'001);
  EXPECT_EQ(address_of(odd.get()) % satutil::kHugePageBytes, 0u);
  const auto below =
      satutil::large_array<std::uint8_t>(satutil::kHugePageBytes - 1);
  ASSERT_NE(below, nullptr);
  EXPECT_EQ(address_of(below.get()) % 64, 0u);
  EXPECT_EQ(below.get_deleter().align, 64u);
  const auto tiny = satutil::large_array<double>(1);
  EXPECT_EQ(address_of(tiny.get()) % 64, 0u);
  // The whole requested range is usable storage.
  odd[3'000'000] = 7;
  below[satutil::kHugePageBytes - 2] = 1;
  EXPECT_EQ(odd[3'000'000], 7);
  // Zero elements: an empty array, no allocation.
  EXPECT_EQ(satutil::large_array<int>(0), nullptr);
  EXPECT_EQ(satutil::large_array<double>(0), nullptr);
}

TEST(LargeArray, HugeBuffersAreAdvisedWhereTheKernelSupportsIt) {
  // Linux with transparent huge pages only: the mapping holding a ≥ 2 MiB
  // array carries the MADV_HUGEPAGE flag ("hg" in /proc/self/smaps).
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage/enabled"))
    GTEST_SKIP() << "no transparent huge pages on this system";
  const auto a = satutil::large_array<std::uint32_t>(3 << 20);
  const std::uintptr_t at = address_of(a.get());
  std::ifstream smaps("/proc/self/smaps");
  ASSERT_TRUE(smaps) << "no /proc/self/smaps";
  bool inside = false, found = false;
  for (std::string line; std::getline(smaps, line);) {
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= at && at < hi;
      continue;
    }
    if (inside && line.rfind("VmFlags:", 0) == 0) {
      found = true;
      EXPECT_NE(line.find(" hg"), std::string::npos) << line;
      break;
    }
  }
  EXPECT_TRUE(found) << "no mapping holds the array";
}

TEST(Span2d, IndexingAndRows) {
  std::vector<int> v(12);
  for (int i = 0; i < 12; ++i) v[i] = i;
  Span2d<int> s(v.data(), 3, 4);
  EXPECT_EQ(s(0, 0), 0);
  EXPECT_EQ(s(1, 2), 6);
  EXPECT_EQ(s(2, 3), 11);
  EXPECT_EQ(s.row(1)[0], 4);
  EXPECT_EQ(s.row(1).size(), 4u);
}

TEST(Span2d, SubviewSharesStorage) {
  std::vector<int> v(16, 0);
  Span2d<int> s(v.data(), 4, 4);
  Span2d<int> sub = s.subview(1, 1, 2, 2);
  sub(0, 0) = 42;
  EXPECT_EQ(s(1, 1), 42);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.stride(), 4u);
}

TEST(Span2d, ConstConversion) {
  std::vector<int> v(4, 7);
  Span2d<int> s(v.data(), 2, 2);
  Span2d<const int> cs = s;
  EXPECT_EQ(cs(1, 1), 7);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) differ += a.next_u64() != b.next_u64();
  EXPECT_GT(differ, 12);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformFloatInRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const float x = r.uniform<float>(0.0f, 1.0f);
    EXPECT_GE(x, 0.0f);
    EXPECT_LT(x, 1.0f);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform<int>(3, 5));
  EXPECT_EQ(seen, (std::set<int>{3, 4, 5}));
}

TEST(Format, SigDigits) {
  EXPECT_EQ(satutil::format_sig(0.078999, 3), "0.079");
  EXPECT_EQ(satutil::format_sig(14.7, 3), "14.7");
  EXPECT_EQ(satutil::format_sig(0.0, 3), "0");
}

TEST(Format, Pct) { EXPECT_EQ(satutil::format_pct(5.69), "5.7%"); }

TEST(Format, Count) {
  EXPECT_EQ(satutil::format_count(0), "0");
  EXPECT_EQ(satutil::format_count(999), "999");
  EXPECT_EQ(satutil::format_count(1000), "1,000");
  EXPECT_EQ(satutil::format_count(1234567), "1,234,567");
}

TEST(Format, SizeLabel) {
  EXPECT_EQ(satutil::format_size_label(256), "256");
  EXPECT_EQ(satutil::format_size_label(1024), "1K");
  EXPECT_EQ(satutil::format_size_label(32768), "32K");
}

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"bb", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name | value |"), std::string::npos);
  EXPECT_NE(out.find("| a    |     1 |"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), satutil::CheckError);
}

TEST(ArgParser, ParsesValuesAndDefaults) {
  ArgParser p("prog", "test");
  p.add("size", "1024", "matrix size").add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--size", "2048", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_int("size"), 2048);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, EqualsSyntaxAndDefaults) {
  ArgParser p("prog", "test");
  p.add("w", "64", "tile width");
  const char* argv[] = {"prog", "--w=128"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.get_int("w"), 128);

  ArgParser q("prog", "test");
  q.add("w", "64", "tile width");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(q.parse(1, argv2));
  EXPECT_EQ(q.get_int("w"), 64);
}

TEST(ArgParser, RejectsUnknown) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(Check, ThrowsWithMessage) {
  try {
    SAT_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const satutil::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    // The message alone, for a caller that reports it to a user.
    EXPECT_EQ(e.message(), "custom 42");
  }
  try {
    SAT_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const satutil::CheckError& e) {
    EXPECT_EQ(e.message(), e.what());  // a bare check has only its expression
  }
}

}  // namespace
