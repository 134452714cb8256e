// Scene oracle: apps::random_scene (separable blobs behind a rounding
// guard) against the per-pixel reference in scene_reference.hpp, bit for
// bit, plus unit tests of the guard predicate on constructed doubles.
//
// The SceneOracle slice replays every image-kernel scene that the golden
// suites (test_measurement_golden, test_exp_golden) measure; the paper-scale
// sweep lives in scene_oracle_sweep.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/image.hpp"
#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "scene_reference.hpp"

namespace mcs::apps {
namespace {

using scene_oracle::SceneCampaign;

std::string describe(const std::vector<SceneCampaign>& campaigns,
                     const std::vector<scene_oracle::SceneMismatch>& bad) {
  std::string out;
  for (const scene_oracle::SceneMismatch& m : bad) {
    const SceneCampaign& c = campaigns[m.campaign];
    out.append(c.kernel)
        .append(" seed=")
        .append(std::to_string(c.seed))
        .append(" sample=")
        .append(std::to_string(m.sample))
        .append("\n");
  }
  return out;
}

TEST(SceneOracle, MeasurementGoldenScenes) {
  // test_measurement_golden: measure_kernel on each Table II kernel at
  // seed 2026, 400 samples.
  std::vector<SceneCampaign> campaigns;
  scene_oracle::add_campaigns(campaigns, table2_kernels(), 400,
                              [](std::size_t) { return 2026U; });
  ASSERT_EQ(campaigns.size(), 4U);
  const auto bad = scene_oracle::find_mismatches(campaigns);
  EXPECT_TRUE(bad.empty()) << describe(campaigns, bad);
}

TEST(SceneOracle, ExpGoldenScenes) {
  // test_exp_golden: run_table2(200, 2027) seeds kernel k with
  // 2027 + 100 + k (its 100-sample shard runs replay a prefix), and
  // run_shootout_kernels(roster, 200, 2027) seeds all_kernels()[k] with
  // 2027 + 31k.
  std::vector<SceneCampaign> campaigns;
  scene_oracle::add_campaigns(campaigns, table2_kernels(), 200,
                              [](std::size_t k) { return 2127U + k; });
  scene_oracle::add_campaigns(campaigns, all_kernels(), 200,
                              [](std::size_t k) { return 2027U + 31U * k; });
  ASSERT_EQ(campaigns.size(), 8U);
  const auto bad = scene_oracle::find_mismatches(campaigns);
  EXPECT_TRUE(bad.empty()) << describe(campaigns, bad);
}

TEST(SceneOracle, NonSquareAndDegenerateShapes) {
  // The column and row tables are sized per axis.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 37}, {37, 1}, {17, 5}, {5, 17}, {96, 33}, {33, 96}};
  for (const auto& [width, height] : shapes) {
    SceneConfig config;
    config.width = width;
    config.height = height;
    config.min_blobs = 0;
    config.max_blobs = 20;
    for (std::uint64_t seed = 0; seed < 40; ++seed)
      EXPECT_TRUE(scene_oracle::scene_matches(config, common::Rng(seed)))
          << width << "x" << height << " seed=" << seed;
  }
}

// ------------------------------------------------------------------
// The guard predicate on constructed doubles.
// ------------------------------------------------------------------

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

double from_bits(std::uint64_t u) {
  double x = 0.0;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

/// `p` moved by `ulps` steps of the double grid.
double step(double p, std::int64_t ulps) {
  return from_bits(bits_of(p) + static_cast<std::uint64_t>(ulps));
}

/// The midpoint between float f and the next float up (exact in double).
double midpoint_above(float f) {
  const float up = std::nextafter(f, std::numeric_limits<float>::infinity());
  return (static_cast<double>(f) + static_cast<double>(up)) / 2.0;
}

void expect_window(double midpoint, const char* what) {
  constexpr std::int64_t kInside = std::int64_t{1} << 16;
  constexpr std::int64_t kOutside = std::int64_t{1} << 18;
  for (const std::int64_t ulps : {std::int64_t{0}, kInside, -kInside})
    EXPECT_TRUE(detail::scene_needs_exact(step(midpoint, ulps)))
        << what << " midpoint " << ulps << " ulps";
  for (const std::int64_t ulps : {kOutside, -kOutside})
    EXPECT_FALSE(detail::scene_needs_exact(step(midpoint, ulps)))
        << what << " midpoint " << ulps << " ulps";
}

TEST(SceneGuard, NormalFloatMidpoints) {
  // Midpoints across the normal float range, including the first and last
  // midpoint of a binade and the one just below the smallest normal.
  for (const float f : {1.0F, 1.2345F, 1.9999999F, 3.0F, 100.0F, 159.9F,
                        1.0e-20F, 0x1p-125F, 0x1p-126F})
    expect_window(midpoint_above(f), "normal");
}

TEST(SceneGuard, SubnormalFloatBands) {
  // Below 2^-126 the float quantum is fixed at 2^-149, so in the double
  // binade [2^e, 2^(e+1)) the rounding bit sits 29 + (-126 - e) bits up
  // the double mantissa. One midpoint per band, e = -127 ... -149.
  for (int e = -127; e >= -149; --e) {
    const float f = std::ldexp(1.0F, e);  // k * 2^-149 with k = 2^(e+149)
    const double midpoint = midpoint_above(f);
    ASSERT_EQ(std::ilogb(midpoint), e);
    expect_window(midpoint, "subnormal band");
  }
  // The last subnormal midpoint, between the largest subnormal and 2^-126.
  expect_window(midpoint_above(0x1.fffffcp-127F), "largest subnormal");
  // e = -150: the implicit bit is the rounding bit. The only midpoint in
  // [2^-150, 2^-149) is 2^-150 itself, between 0 and the least subnormal.
  const double tie = 0x1p-150;
  EXPECT_TRUE(detail::scene_needs_exact(tie));
  EXPECT_TRUE(detail::scene_needs_exact(step(tie, 1 << 16)));
  EXPECT_TRUE(detail::scene_needs_exact(step(tie, -(1 << 16))));
  EXPECT_FALSE(detail::scene_needs_exact(step(tie, 1 << 18)));
  EXPECT_FALSE(detail::scene_needs_exact(step(tie, -(1 << 18))));
}

TEST(SceneGuard, BelowTheLeastSubnormalRoundsToZeroUnguarded) {
  // Below 2^-150 every double rounds to +0.0f and so does every double in
  // its window: no fallback, just above and just below 2^-151 alike.
  for (const double p : {0.0, 0x1p-1074, 0x1p-1000, 0x1p-200,
                         step(0x1p-151, -1), 0x1p-151, step(0x1p-151, 1),
                         0x1.fffp-151}) {
    EXPECT_FALSE(detail::scene_needs_exact(p)) << p;
    EXPECT_EQ(bits_of(static_cast<float>(p)), 0U) << p;
  }
}

TEST(SceneGuard, NoFallbackMeansEveryNearbyDoubleRoundsAlike) {
  // The guard's contract: when it does not fire, every double within
  // relative 2^-41 of p (the separable form's error bound) rounds to
  // float(p). Probe random doubles across the whole float range, half of
  // them placed near a rounding midpoint.
  common::Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    const int e = static_cast<int>(rng.uniform_i64(-155, 10));
    double p = std::ldexp(rng.uniform(1.0, 2.0), e);
    if (i % 2 == 0)
      p = step(midpoint_above(static_cast<float>(p)),
               rng.uniform_i64(-(1 << 19), 1 << 19));
    if (detail::scene_needs_exact(p)) continue;
    const float expected = static_cast<float>(p);
    for (const double rel : {0x1p-41, -0x1p-41}) {
      const double q = p * (1.0 + rel);
      EXPECT_EQ(bits_of(static_cast<float>(q)), bits_of(expected))
          << std::hexfloat << p << " vs " << q;
    }
  }
}

/// One blob contribution in both forms, as random_scene computes them.
struct Contribution {
  double separable;  ///< amplitude * exp(-dy^2 k) * exp(-dx^2 k)
  float exact;       ///< float(amplitude * exp(-(dx^2 + dy^2) k))
};

Contribution contribution(double amplitude, double inv2r2, double dx,
                          double dy) {
  return {(amplitude * std::exp(-(dy * dy) * inv2r2)) *
              std::exp(-(dx * dx) * inv2r2),
          static_cast<float>(
              amplitude * std::exp(-(dx * dx + dy * dy) * inv2r2))};
}

TEST(SceneGuard, RandomBlobsAgreeWithThePerPixelFormula) {
  // Random (cx, radius, amplitude) and pixel offsets, as random_scene
  // draws them: wherever the guard does not fire, the separable float is
  // the per-pixel float.
  common::Rng rng(2026);
  std::size_t near_ties = 0;
  for (int i = 0; i < 300000; ++i) {
    const double radius = rng.uniform(1.5, 8.0);
    const double amplitude = rng.uniform(40.0, 160.0);
    const double dx = static_cast<double>(rng.uniform_u64(0, 63)) -
                      rng.uniform(0.0, 64.0);
    const double dy = static_cast<double>(rng.uniform_u64(0, 63)) -
                      rng.uniform(0.0, 64.0);
    const Contribution c =
        contribution(amplitude, 1.0 / (2.0 * radius * radius), dx, dy);
    if (detail::scene_needs_exact(c.separable)) {
      ++near_ties;
      continue;
    }
    ASSERT_EQ(bits_of(static_cast<float>(c.separable)), bits_of(c.exact))
        << std::hexfloat << "p=" << c.separable << " dx=" << dx
        << " dy=" << dy << " radius=" << radius
        << " amplitude=" << amplitude;
  }
  EXPECT_GT(near_ties, 0U);
}

TEST(SceneGuard, ConstructedNearTiesFallBackToTheExactFloat) {
  // Near-ties are too rare to meet by chance often enough, so construct
  // them: for a random blob and pixel, solve for the amplitude that puts
  // the contribution on a float rounding midpoint. The guard must fire on
  // every one (the library then uses the per-pixel float), and the
  // separable float alone must be wrong on some, or the guard would not be
  // needed.
  common::Rng rng(7);
  std::size_t constructed = 0;
  std::size_t separable_wrong = 0;
  while (constructed < 20000) {
    const double radius = rng.uniform(1.5, 8.0);
    const double inv2r2 = 1.0 / (2.0 * radius * radius);
    const double dx = rng.uniform(-12.0, 12.0);
    const double dy = rng.uniform(-12.0, 12.0);
    const double shape =
        std::exp(-(dy * dy) * inv2r2) * std::exp(-(dx * dx) * inv2r2);
    const double midpoint = midpoint_above(
        static_cast<float>(rng.uniform(40.0, 160.0) * shape));
    const double amplitude = midpoint / shape;
    if (!(amplitude >= 40.0 && amplitude < 160.0)) continue;
    ++constructed;
    const Contribution c = contribution(amplitude, inv2r2, dx, dy);
    ASSERT_TRUE(detail::scene_needs_exact(c.separable))
        << std::hexfloat << "p=" << c.separable << " midpoint=" << midpoint;
    if (bits_of(static_cast<float>(c.separable)) != bits_of(c.exact))
      ++separable_wrong;
  }
  EXPECT_GT(separable_wrong, 0U);
}

}  // namespace
}  // namespace mcs::apps
