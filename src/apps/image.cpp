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
  const std::size_t blobs =
      static_cast<std::size_t>(rng.uniform_u64(config.min_blobs,
                                               config.max_blobs));
  for (std::size_t b = 0; b < blobs; ++b) {
    const double cx = rng.uniform(0.0, static_cast<double>(config.width));
    const double cy = rng.uniform(0.0, static_cast<double>(config.height));
    const double radius = rng.uniform(1.5, 8.0);
    const double amplitude = rng.uniform(40.0, 160.0);
    const double inv2r2 = 1.0 / (2.0 * radius * radius);
    for (std::size_t y = 0; y < config.height; ++y) {
      for (std::size_t x = 0; x < config.width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        img.at(x, y) += static_cast<float>(
            amplitude * std::exp(-(dx * dx + dy * dy) * inv2r2));
      }
    }
  }
  for (float& px : img.data())
    px += static_cast<float>(rng.normal(0.0, config.noise_sigma));
  return img;
}

}  // namespace mcs::apps
