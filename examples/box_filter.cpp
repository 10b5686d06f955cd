// Box filter via the summed area table — the classic image-processing use
// the paper's introduction motivates: once the SAT exists, the mean of any
// k×k window is four table lookups, independent of k.
//
// This example builds a synthetic "image" (smooth gradient + noise + a
// bright square), computes its SAT with the paper's algorithm, box-filters
// it at several radii, and prints coarse ASCII renderings plus the speed
// comparison against direct convolution.
//
//   ./box_filter [--n 512] [--radius 7]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/region.hpp"
#include "repro/repro.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"

namespace {

sat::Matrix<float> make_test_image(std::size_t n, std::uint64_t seed) {
  sat::Matrix<float> img(n, n);
  satutil::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double gradient =
          0.5 * (double(i) + double(j)) / double(2 * n - 2);
      const double noise = 0.25 * rng.next_double();
      const bool in_square = i > n / 3 && i < n / 2 && j > n / 3 && j < n / 2;
      img(i, j) = float(gradient + noise + (in_square ? 0.8 : 0.0));
    }
  }
  return img;
}

/// Box filter from the SAT: O(1) per pixel regardless of radius.
sat::Matrix<float> box_filter_sat(const sat::Matrix<float>& table,
                                  std::size_t n, std::size_t radius) {
  sat::Matrix<float> out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t r0 = i > radius ? i - radius : 0;
      const std::size_t c0 = j > radius ? j - radius : 0;
      const std::size_t r1 = std::min(n, i + radius + 1);
      const std::size_t c1 = std::min(n, j + radius + 1);
      out(i, j) = float(sat::region_mean(table, {r0, c0, r1, c1}));
    }
  }
  return out;
}

/// Direct convolution: O(k²) per pixel — the baseline the SAT removes.
sat::Matrix<float> box_filter_direct(const sat::Matrix<float>& img,
                                     std::size_t n, std::size_t radius) {
  sat::Matrix<float> out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t r0 = i > radius ? i - radius : 0;
      const std::size_t c0 = j > radius ? j - radius : 0;
      const std::size_t r1 = std::min(n, i + radius + 1);
      const std::size_t c1 = std::min(n, j + radius + 1);
      double sum = 0;
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) sum += img(r, c);
      out(i, j) = float(sum / double((r1 - r0) * (c1 - c0)));
    }
  }
  return out;
}

void render_ascii(const sat::Matrix<float>& img, const char* title) {
  static const char* kShades = " .:-=+*#%@";
  const std::size_t n = img.rows();
  const std::size_t cell = n / 32;
  float lo = img(0, 0), hi = img(0, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      lo = std::min(lo, img(i, j));
      hi = std::max(hi, img(i, j));
    }
  std::printf("%s (downsampled to 32x32):\n", title);
  for (std::size_t bi = 0; bi < 32; ++bi) {
    for (std::size_t bj = 0; bj < 32; ++bj) {
      double sum = 0;
      for (std::size_t i = 0; i < cell; ++i)
        for (std::size_t j = 0; j < cell; ++j)
          sum += img(bi * cell + i, bj * cell + j);
      const double v = (sum / double(cell * cell) - lo) / (hi - lo + 1e-9);
      std::putchar(kShades[std::min(9, int(v * 10))]);
      std::putchar(kShades[std::min(9, int(v * 10))]);
    }
    std::putchar('\n');
  }
  std::putchar('\n');
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("box_filter", "SAT-based box filtering demo");
  args.add("n", "512", "image side (multiple of 128)")
      .add("radius", "7", "box filter radius");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const auto radius = static_cast<std::size_t>(args.get_int("radius"));

  const auto img = make_test_image(n, 42);
  render_ascii(img, "input image");

  auto result = satrepro::compute_sat(img);
  std::printf("SAT computed with %s: %zu kernel call(s), %.3f modeled ms\n\n",
              result.stats.algorithm.c_str(), result.stats.kernel_calls,
              result.stats.critical_path_us / 1e3);

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto filtered = box_filter_sat(result.table, n, radius);
  const auto t1 = clock::now();
  const auto direct = box_filter_direct(img, n, radius);
  const auto t2 = clock::now();

  render_ascii(filtered, "box-filtered (SAT, O(1) per pixel)");

  double max_err = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      max_err = std::max(max_err, std::abs(double(filtered(i, j)) -
                                           double(direct(i, j))));
  const double ms_sat = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double ms_dir = std::chrono::duration<double, std::milli>(t2 - t1).count();
  std::printf("radius %zu: SAT filter %.2f ms, direct %.2f ms (%.1fx), "
              "max |diff| = %.2e\n",
              radius, ms_sat, ms_dir, ms_dir / ms_sat, max_err);
  return max_err < 1e-2 ? 0 : 1;
}
