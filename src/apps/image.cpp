#include "apps/image.hpp"

#include <cmath>
#include <stdexcept>

namespace mcs::apps {

Image::Image(std::size_t width, std::size_t height)
    : width_(width), height_(height), data_(width * height, 0.0F) {
  if (width == 0 || height == 0)
    throw std::invalid_argument("Image: dimensions must be >= 1");
}

Image random_scene(const SceneConfig& config, common::Rng& rng) {
  Image img(config.width, config.height);
  const std::size_t width = config.width;
  const std::size_t height = config.height;
  const std::size_t blobs =
      static_cast<std::size_t>(rng.uniform_u64(config.min_blobs,
                                               config.max_blobs));
  // Per blob: ex[x] = exp(-dx^2 k) per column, ey[y] = amplitude *
  // exp(-dy^2 k) per row, and one row of float contributions.
  std::vector<double> ex(width);
  std::vector<double> ey(height);
  std::vector<float> contribution(width);
  for (std::size_t b = 0; b < blobs; ++b) {
    const double cx = rng.uniform(0.0, static_cast<double>(width));
    const double cy = rng.uniform(0.0, static_cast<double>(height));
    const double radius = rng.uniform(1.5, 8.0);
    const double amplitude = rng.uniform(40.0, 160.0);
    const double inv2r2 = 1.0 / (2.0 * radius * radius);
    for (std::size_t x = 0; x < width; ++x) {
      const double dx = static_cast<double>(x) - cx;
      ex[x] = std::exp(-(dx * dx) * inv2r2);
    }
    for (std::size_t y = 0; y < height; ++y) {
      const double dy = static_cast<double>(y) - cy;
      ey[y] = amplitude * std::exp(-(dy * dy) * inv2r2);
    }
    for (std::size_t y = 0; y < height; ++y) {
      // Branch-free pass (vectorizable): the separable contribution and a
      // count of near-ties the guard cannot settle.
      const double row_scale = ey[y];
      std::size_t near_ties = 0;
      for (std::size_t x = 0; x < width; ++x) {
        const double p = row_scale * ex[x];
        contribution[x] = static_cast<float>(p);
        near_ties += detail::scene_needs_exact(p) ? 1U : 0U;
      }
      // Rare (about 1 pixel in 2000): recompute the near-ties with the
      // per-pixel formula.
      if (near_ties != 0) {
        const double dy = static_cast<double>(y) - cy;
        for (std::size_t x = 0; x < width; ++x) {
          if (!detail::scene_needs_exact(row_scale * ex[x])) continue;
          const double dx = static_cast<double>(x) - cx;
          contribution[x] = static_cast<float>(
              amplitude * std::exp(-(dx * dx + dy * dy) * inv2r2));
        }
      }
      float* const out = img.data().data() + y * width;
      for (std::size_t x = 0; x < width; ++x) out[x] += contribution[x];
    }
  }
  for (float& px : img.data())
    px += static_cast<float>(rng.normal(0.0, config.noise_sigma));
  return img;
}

}  // namespace mcs::apps
