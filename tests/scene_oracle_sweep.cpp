// Paper-scale scene oracle: replays every image-kernel scene (corner, edge,
// smooth, epic) that the paper drivers draw at their default seeds and
// compares apps::random_scene against the per-pixel reference bit for bit.
//
//   Table I   run_table1(20000, 1):          kernel k seeded 1 + k
//   Table II  run_table2(20000, 1):          kernel k seeded 101 + k
//   Fig. 1    run_fig1("smooth", 20000, .., 1): seed 1
//   shoot-out run_shootout_kernels(.., 4000, 29): kernel k seeded 29 + 31k
//
// About 200k scenes; prints one line per campaign and exits 1 if any scene
// differs. Usage: scene_oracle_sweep [--jobs=N]
#include <cstdio>

#include "apps/registry.hpp"
#include "common/cli.hpp"
#include "scene_reference.hpp"

int main(int argc, char** argv) {
  using mcs::apps::scene_oracle::SceneCampaign;
  mcs::common::Cli cli(
      "Scene oracle over the paper drivers' image-kernel campaigns");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;

  std::vector<SceneCampaign> campaigns;
  mcs::apps::scene_oracle::add_campaigns(
      campaigns, mcs::apps::table1_kernels(), 20000,
      [](std::size_t k) { return 1U + k; });
  mcs::apps::scene_oracle::add_campaigns(
      campaigns, mcs::apps::table2_kernels(), 20000,
      [](std::size_t k) { return 101U + k; });
  campaigns.push_back({"smooth", 1, 20000});
  mcs::apps::scene_oracle::add_campaigns(
      campaigns, mcs::apps::all_kernels(), 4000,
      [](std::size_t k) { return 29U + 31U * k; });

  const auto mismatches = mcs::apps::scene_oracle::find_mismatches(campaigns);
  std::size_t scenes = 0;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    std::size_t bad = 0;
    for (const auto& m : mismatches) bad += m.campaign == c ? 1U : 0U;
    std::printf("%-7s seed=%-4llu scenes=%-6zu differing=%zu\n",
                campaigns[c].kernel.c_str(),
                static_cast<unsigned long long>(campaigns[c].seed),
                campaigns[c].samples, bad);
    scenes += campaigns[c].samples;
  }
  for (const auto& m : mismatches)
    std::printf("DIFF %s seed=%llu sample=%zu\n",
                campaigns[m.campaign].kernel.c_str(),
                static_cast<unsigned long long>(campaigns[m.campaign].seed),
                m.sample);
  std::printf("scene oracle: %zu scenes, %zu differing\n", scenes,
              mismatches.size());
  return mismatches.empty() ? 0 : 1;
}
