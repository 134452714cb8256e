// Grayscale image container and randomized content generator for the image
// kernels (corner, edge, smooth, epic).
//
// Random images are sums of Gaussian blobs over a noise floor; the number,
// size and contrast of blobs vary per input, so downstream work (corners
// found, edge pixels, smoothing iterations, compressibility) is genuinely
// content-dependent — the source of execution-time variance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace mcs::apps {

/// Row-major single-channel float image.
class Image {
 public:
  /// Creates a zero-filled image. Requires width, height >= 1.
  Image(std::size_t width, std::size_t height);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] std::size_t pixel_count() const { return data_.size(); }

  [[nodiscard]] float& at(std::size_t x, std::size_t y) {
    return data_[y * width_ + x];
  }
  [[nodiscard]] float at(std::size_t x, std::size_t y) const {
    return data_[y * width_ + x];
  }

  /// Clamped accessor: coordinates outside the image are clamped to the
  /// border (replicate padding), as the convolution kernels expect.
  /// Inline: smooth, edge and corner read 5-9 clamped pixels per pixel.
  [[nodiscard]] float at_clamped(long x, long y) const {
    const long mx = std::clamp<long>(x, 0, static_cast<long>(width_) - 1);
    const long my = std::clamp<long>(y, 0, static_cast<long>(height_) - 1);
    return data_[static_cast<std::size_t>(my) * width_ +
                 static_cast<std::size_t>(mx)];
  }

  [[nodiscard]] const std::vector<float>& data() const { return data_; }
  [[nodiscard]] std::vector<float>& data() { return data_; }

 private:
  std::size_t width_;
  std::size_t height_;
  std::vector<float> data_;
};

/// Parameters of the synthetic scene generator.
struct SceneConfig {
  std::size_t width = 64;
  std::size_t height = 64;
  std::size_t min_blobs = 2;   ///< fewest features per scene
  std::size_t max_blobs = 14;  ///< most features per scene
  double noise_sigma = 4.0;    ///< additive pixel noise
};

/// Draws a random scene: `blobs` Gaussian bumps of random position, radius
/// and amplitude on a noisy background.
///
/// Pixel (x, y) of blob b receives
///   float(amplitude * exp(-(dx*dx + dy*dy) * inv2r2))
/// with dx = x - cx, dy = y - cy, blob contributions accumulate in float
/// in blob order and the noise is added last. That value is computed in
/// separable form, amplitude*exp(-dy*dy*inv2r2) * exp(-dx*dx*inv2r2) from
/// one per-row and one per-column table (width + height exp calls per blob
/// instead of width * height), and every product that
/// detail::scene_needs_exact flags is recomputed with the expression above,
/// so each output bit equals that of the per-pixel formula (DESIGN.md,
/// "Scene synthesis").
[[nodiscard]] Image random_scene(const SceneConfig& config, common::Rng& rng);

namespace detail {

/// Relative half-width of the scene guard window, 3 * 2^-37 (about
/// 2^-35.4): between 2^16 and 2^18 units in the last place of a double,
/// whatever its mantissa. Wherever all its factors are normal doubles the
/// separable product is within 2^-41 relative of the per-pixel formula's
/// value, so the window holds that value with a margin of 48.
inline constexpr double kSceneGuardWidth = 0x3p-37;

/// Scene-synthesis guard: true when the two ends of the window
/// [p (1 - kSceneGuardWidth), p (1 + kSceneGuardWidth)] round to different
/// floats, i.e. when a float rounding boundary may lie inside it. Rounding
/// to nearest is monotone, so when this is false every double in the
/// window, the per-pixel formula's value included, rounds to float(p). The
/// one test covers normal and subnormal floats alike.
[[nodiscard]] inline bool scene_needs_exact(double p) {
  return static_cast<float>(p * (1.0 - kSceneGuardWidth)) !=
         static_cast<float>(p * (1.0 + kSceneGuardWidth));
}

}  // namespace detail

}  // namespace mcs::apps
