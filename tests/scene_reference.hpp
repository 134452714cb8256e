// Test-side reference for apps::random_scene and the scene oracle built on
// it.
//
// reference_random_scene is the scene generator in its original per-pixel
// form: one exp per pixel per blob. The library computes the same scene in
// separable form behind a rounding guard (src/apps/image.cpp) and must
// reproduce this reference bit for bit. The oracle replays the scenes that
// the image kernels (corner, edge, smooth, epic) draw in a measurement
// campaign and compares both generators on each.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/image.hpp"
#include "apps/kernel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace mcs::apps::scene_oracle {

/// random_scene as a direct per-pixel loop.
inline Image reference_random_scene(const SceneConfig& config,
                                    common::Rng& rng) {
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

/// True when random_scene and the reference draw bit-identical scenes
/// from copies of `rng` and leave their generators in the same state.
inline bool scene_matches(const SceneConfig& config, const common::Rng& rng) {
  common::Rng library_rng = rng;
  common::Rng reference_rng = rng;
  const Image library = random_scene(config, library_rng);
  const Image reference = reference_random_scene(config, reference_rng);
  return library.width() == reference.width() &&
         library.height() == reference.height() &&
         std::memcmp(library.data().data(), reference.data().data(),
                     library.data().size() * sizeof(float)) == 0 &&
         library_rng() == reference_rng();
}

/// One image kernel's measurement campaign: sample i draws its scene from
/// Rng(index_seed(seed, i)), as measure_kernels seeds it.
struct SceneCampaign {
  std::string kernel;  ///< "corner", "edge", "smooth" or "epic"
  std::uint64_t seed;
  std::size_t samples;
};

[[nodiscard]] inline bool is_image_kernel(const std::string& name) {
  return name == "corner" || name == "edge" || name == "smooth" ||
         name == "epic";
}

/// Appends the image-kernel campaigns of a measure_kernels call over
/// `roster` in which kernel k is seeded seed_of(k).
inline void add_campaigns(
    std::vector<SceneCampaign>& campaigns, const std::vector<KernelPtr>& roster,
    std::size_t samples, const std::function<std::uint64_t(std::size_t)>& seed_of) {
  for (std::size_t k = 0; k < roster.size(); ++k)
    if (is_image_kernel(roster[k]->name()))
      campaigns.push_back({roster[k]->name(), seed_of(k), samples});
}

/// Replays sample `i` of `campaign` up to its scene draw (the kernels'
/// default SceneConfig; smooth first draws its noise sigma, as
/// SmoothKernel::run_once does) and compares both generators on it.
inline bool campaign_scene_matches(const SceneCampaign& campaign,
                                   std::size_t i) {
  common::Rng rng(common::index_seed(campaign.seed, i));
  SceneConfig config;
  if (campaign.kernel == "smooth") config.noise_sigma = rng.uniform(1.0, 9.0);
  return scene_matches(config, rng);
}

/// A scene on which the library and the reference disagree.
struct SceneMismatch {
  std::size_t campaign;  ///< index into the campaign list
  std::size_t sample;
};

/// Every differing scene over `campaigns`, in campaign then sample order.
/// Scenes are compared in parallel over the pool.
[[nodiscard]] inline std::vector<SceneMismatch> find_mismatches(
    const std::vector<SceneCampaign>& campaigns) {
  std::vector<std::size_t> first(campaigns.size() + 1, 0);
  for (std::size_t c = 0; c < campaigns.size(); ++c)
    first[c + 1] = first[c] + campaigns[c].samples;
  std::vector<std::uint8_t> matches(first.back(), 0);
  common::parallel_for_chunked(first.back(), 16, [&](std::size_t item) {
    std::size_t c = 0;
    while (first[c + 1] <= item) ++c;
    matches[item] =
        campaign_scene_matches(campaigns[c], item - first[c]) ? 1U : 0U;
  });
  std::vector<SceneMismatch> mismatches;
  for (std::size_t c = 0; c < campaigns.size(); ++c)
    for (std::size_t i = first[c]; i < first[c + 1]; ++i)
      if (matches[i] == 0) mismatches.push_back({c, i - first[c]});
  return mismatches;
}

}  // namespace mcs::apps::scene_oracle
