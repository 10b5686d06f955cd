// Tests for bench/bench_json.hpp: derived-rate math, the machine
// descriptor, the optional "overhead_vs_copy_pct" and v2 "metrics" fields,
// and the write path — which must create missing parent directories and
// fail loudly (never silently drop a run) when the path is unusable.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

satbench::Record sample_record() {
  satbench::Record r;
  r.name = "host_sat/simd/1024";
  r.impl = "simd";
  r.dtype = "f32";
  r.n = 1024;
  r.elems = 1024 * 1024;
  r.iterations = 3;
  r.wall_ms = 2.0;
  return r;
}

TEST(Record, DerivedRates) {
  const satbench::Record r = sample_record();
  // 1 Mi elements in 2 ms = 2^20 / 2000 µs elements per µs.
  EXPECT_NEAR(r.melem_per_s(), 1024.0 * 1024.0 / 2000.0, 1e-9);
  EXPECT_NEAR(r.ns_per_elem(), 2e6 / (1024.0 * 1024.0), 1e-9);
  satbench::Record zero;
  EXPECT_EQ(zero.melem_per_s(), 0.0);
  EXPECT_EQ(zero.ns_per_elem(), 0.0);
}

TEST(WriteJson, CreatesMissingParentDirectories) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "bench_json_test" / "deep" / "nested";
  fs::remove_all(fs::path(testing::TempDir()) / "bench_json_test");
  const std::string path = (dir / "BENCH_x.json").string();
  ASSERT_FALSE(fs::exists(dir));

  ASSERT_TRUE(satbench::write_json(path, {sample_record()}, "scalar",
                                   /*smoke=*/true));
  ASSERT_TRUE(fs::exists(path));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"schema\": \"satlib-bench-v2\""), std::string::npos);
  EXPECT_NE(text.find("\"host_sat/simd/1024\""), std::string::npos);
  // No metrics or copy floor were attached, so both fields are omitted.
  EXPECT_EQ(text.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(text.find("\"overhead_vs_copy_pct\""), std::string::npos);
}

TEST(WriteJson, EmitsOverheadVsCopyWhenSet) {
  const std::string path =
      (fs::path(testing::TempDir()) / "BENCH_overhead.json").string();
  satbench::Record r = sample_record();
  r.overhead_vs_copy_pct = 27.5;
  ASSERT_TRUE(satbench::write_json(path, {r}, "avx2", /*smoke=*/false));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"overhead_vs_copy_pct\": 27.5"), std::string::npos)
      << text;
}

TEST(WriteJson, EmbedsMetricsObjectWhenPresent) {
  const std::string path =
      (fs::path(testing::TempDir()) / "BENCH_metrics.json").string();
  satbench::Record r = sample_record();
  r.metrics_json = "{\"counters\":{\"host.pool.chunks\":12}}";
  ASSERT_TRUE(satbench::write_json(path, {r}, "avx2", /*smoke=*/false));
  const std::string text = slurp(path);
  EXPECT_NE(
      text.find("\"metrics\": {\"counters\":{\"host.pool.chunks\":12}}"),
      std::string::npos)
      << text;
}

TEST(WriteJson, NamesItsMachine) {
  const std::string path =
      (fs::path(testing::TempDir()) / "BENCH_machine.json").string();
  ASSERT_TRUE(
      satbench::write_json(path, {sample_record()}, "avx2", /*smoke=*/false));
  const std::string text = slurp(path);
  const std::string want =
      "\"machine\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": \"" + satbench::cpu_model() +
      "\", \"simd_backend\": \"avx2\"}";
  EXPECT_NE(text.find(want), std::string::npos) << text;
}

TEST(CpuModel, FirstModelNameOrUnknown) {
  const fs::path dir = fs::path(testing::TempDir());
  EXPECT_EQ(satbench::cpu_model((dir / "no_such_cpuinfo").string()),
            "unknown");
  const std::string path = (dir / "cpuinfo_sample").string();
  {
    std::ofstream(path) << "processor\t: 0\n"
                           "vendor_id\t: GenuineIntel\n"
                           "model name\t: Test CPU @ 2.00GHz\n"
                           "processor\t: 1\n"
                           "model name\t: Second CPU\n";
  }
  EXPECT_EQ(satbench::cpu_model(path), "Test CPU @ 2.00GHz");
  { std::ofstream(path) << "processor\t: 0\nHardware\t: board\n"; }
  EXPECT_EQ(satbench::cpu_model(path), "unknown");
  fs::remove(path);
}

TEST(WriteJson, FailsLoudlyWhenParentIsAFile) {
  // A regular file where a directory is needed: create_directories cannot
  // succeed, and write_json must report failure instead of dropping the run.
  const fs::path blocker = fs::path(testing::TempDir()) / "bench_blocker";
  { std::ofstream(blocker.string()) << "x"; }
  const std::string path = (blocker / "sub" / "BENCH_x.json").string();
  EXPECT_FALSE(
      satbench::write_json(path, {sample_record()}, "scalar", true));
  fs::remove(blocker);
}

}  // namespace
