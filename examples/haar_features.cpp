// Haar-like features from an integral image — the Viola–Jones detector's
// core primitive and a canonical computer-vision consumer of the SAT.
//
// The example plants a bright "face-like" blob (dark eye band over lighter
// cheeks) into a noisy image, computes the integral image with the paper's
// algorithm, and slides two-rectangle and three-rectangle Haar features over
// the image in O(1) per window, reporting the strongest responses.
//
//   ./haar_features [--n 512]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/region.hpp"
#include "repro/repro.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"

namespace {

struct Detection {
  std::size_t row, col;
  double response;
};

sat::Matrix<float> make_scene(std::size_t n, std::size_t face_r,
                              std::size_t face_c, std::size_t face_h,
                              std::size_t face_w, std::uint64_t seed) {
  sat::Matrix<float> img(n, n);
  satutil::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      img(i, j) = 0.45f + 0.1f * float(rng.next_double());
  // A "face": bright skin block with a darker horizontal eye band at 1/3
  // height — exactly the contrast the classic two-rectangle feature fires on.
  for (std::size_t i = 0; i < face_h; ++i) {
    for (std::size_t j = 0; j < face_w; ++j) {
      const bool eye_band = i >= face_h / 4 && i < face_h / 2;
      img(face_r + i, face_c + j) = eye_band ? 0.25f : 0.85f;
    }
  }
  return img;
}

/// Two-rectangle vertical-contrast feature: mean(lower half) − mean(upper
/// half) of an h×w window at (r, c). Four+four table lookups.
double haar_two_rect(const sat::Matrix<float>& table, std::size_t r,
                     std::size_t c, std::size_t h, std::size_t w) {
  const sat::Rect top{r, c, r + h / 2, c + w};
  const sat::Rect bottom{r + h / 2, c, r + h, c + w};
  return sat::region_mean(table, bottom) - sat::region_mean(table, top);
}

/// Three-rectangle horizontal feature: middle third darker than both sides
/// (classic "nose bridge between eyes" detector).
double haar_three_rect(const sat::Matrix<float>& table, std::size_t r,
                       std::size_t c, std::size_t h, std::size_t w) {
  const std::size_t third = w / 3;
  const sat::Rect left{r, c, r + h, c + third};
  const sat::Rect mid{r, c + third, r + h, c + 2 * third};
  const sat::Rect right{r, c + 2 * third, r + h, c + 3 * third};
  return sat::region_mean(table, left) + sat::region_mean(table, right) -
         2.0 * sat::region_mean(table, mid);
}

}  // namespace

int main(int argc, char** argv) {
  satutil::ArgParser args("haar_features",
                          "Viola-Jones-style Haar features from the SAT");
  args.add("n", "512", "image side (multiple of 128)");
  if (!args.parse(argc, argv)) return 1;
  const auto n = static_cast<std::size_t>(args.get_int("n"));

  const std::size_t face_h = n / 8, face_w = n / 8;
  const std::size_t face_r = n / 2, face_c = n / 3;
  const auto img = make_scene(n, face_r, face_c, face_h, face_w, 7);

  const auto result = satrepro::compute_sat(img);
  std::printf("integral image via %s: reads/element = %.3f, "
              "writes/element = %.3f\n\n",
              result.stats.algorithm.c_str(),
              double(result.stats.element_reads) / double(n * n),
              double(result.stats.element_writes) / double(n * n));

  // Slide the eye-band feature (window = face size, upper-half dark) over
  // the image with a small stride; each evaluation is O(1).
  const std::size_t stride = 4;
  std::vector<Detection> hits;
  std::size_t evaluated = 0;
  for (std::size_t r = 0; r + face_h <= n; r += stride) {
    for (std::size_t c = 0; c + face_w <= n; c += stride) {
      // The planted face is dark on top (eye band in the upper half after
      // offsetting by face_h/4): probe with the window shifted so its top
      // half covers the band.
      const double resp =
          haar_two_rect(result.table, r, c, face_h, face_w);
      ++evaluated;
      if (resp > 0.15) hits.push_back({r, c, resp});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const Detection& a, const Detection& b) {
              return a.response > b.response;
            });

  std::printf("evaluated %zu windows (%zux%zu, stride %zu), %zu above "
              "threshold\n",
              evaluated, face_h, face_w, stride, hits.size());
  std::printf("top responses (planted face at row=%zu col=%zu, eye band in "
              "rows +%zu..+%zu):\n",
              face_r, face_c, face_h / 4, face_h / 2);
  bool found = false;
  for (std::size_t k = 0; k < std::min<std::size_t>(5, hits.size()); ++k) {
    std::printf("  row=%4zu col=%4zu response=%.3f\n", hits[k].row,
                hits[k].col, hits[k].response);
    // The strongest windows must sit on the planted face's eye band: the
    // window whose top half covers the band starts around face_r + h/4.
    if (hits[k].row + face_h / 2 >= face_r &&
        hits[k].row <= face_r + face_h / 2 && hits[k].col + face_w > face_c &&
        hits[k].col < face_c + face_w) {
      found = true;
    }
  }

  // Three-rectangle feature at the planted location vs background.
  const double on_face =
      haar_three_rect(result.table, face_r, face_c, face_h / 4, face_w);
  const double off_face =
      haar_three_rect(result.table, n / 8, n / 8, face_h / 4, face_w);
  std::printf("\nthree-rect feature: on-face %.4f vs background %.4f\n",
              on_face, off_face);

  std::printf("detector %s the planted face\n",
              found ? "localized" : "MISSED");
  return found ? 0 : 1;
}
