// Tests for core/optimizer.hpp — GA optimization and the uniform-n sweep.
#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/chebyshev_wcet.hpp"
#include "taskgen/generator.hpp"

namespace mcs::core {
namespace {

mc::TaskSet sample_set(double u_hc_hi, std::uint64_t seed) {
  common::Rng rng(seed);
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  return taskgen::generate_hc_only(config, u_hc_hi, rng);
}

TEST(SweepUniformN, CoversRangeInclusive) {
  const mc::TaskSet tasks = sample_set(0.6, 1);
  const auto points = sweep_uniform_n(tasks, 0.0, 10.0, 1.0);
  ASSERT_EQ(points.size(), 11U);
  EXPECT_DOUBLE_EQ(points.front().n, 0.0);
  EXPECT_DOUBLE_EQ(points.back().n, 10.0);
}

TEST(SweepUniformN, Validation) {
  const mc::TaskSet tasks = sample_set(0.6, 1);
  EXPECT_THROW((void)sweep_uniform_n(tasks, -1.0, 5.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_uniform_n(tasks, 0.0, 5.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_uniform_n(tasks, 5.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(BestUniformN, PicksArgmax) {
  const mc::TaskSet tasks = sample_set(0.7, 2);
  const UniformSweepPoint best = best_uniform_n(tasks, 0.0, 40.0, 0.5);
  for (const auto& p : sweep_uniform_n(tasks, 0.0, 40.0, 0.5))
    EXPECT_GE(best.breakdown.objective, p.breakdown.objective);
}

TEST(BestUniformN, InteriorOptimumExists) {
  // The Eq. 13 product must peak strictly inside the sweep for a typical
  // set: too-small n switches constantly, too-large n starves LC tasks.
  const mc::TaskSet tasks = sample_set(0.8, 3);
  const UniformSweepPoint best = best_uniform_n(tasks, 0.0, 60.0, 0.5);
  EXPECT_GT(best.n, 0.0);
  EXPECT_GT(best.breakdown.objective, 0.0);
}

TEST(OptimizeGa, BeatsOrMatchesUniform) {
  // The per-task degree of freedom can only help (the GA explores a
  // superset of the uniform diagonal); allow tiny stochastic slack.
  for (const std::uint64_t seed : {4ULL, 5ULL, 6ULL}) {
    const mc::TaskSet tasks = sample_set(0.7, seed);
    const UniformSweepPoint uniform = best_uniform_n(tasks, 0.0, 64.0, 0.5);
    OptimizerConfig config;
    config.ga.seed = seed;
    const OptimizationResult ga = optimize_multipliers_ga(tasks, config);
    EXPECT_GE(ga.breakdown.objective,
              0.98 * uniform.breakdown.objective)
        << "seed " << seed;
  }
}

TEST(OptimizeGa, MultipliersRespectEq9) {
  const mc::TaskSet tasks = sample_set(0.6, 7);
  OptimizerConfig config;
  config.ga.seed = 7;
  const OptimizationResult r = optimize_multipliers_ga(tasks, config);
  const auto hc = tasks.indices(mc::Criticality::kHigh);
  ASSERT_EQ(r.n.size(), hc.size());
  for (std::size_t k = 0; k < hc.size(); ++k) {
    EXPECT_GE(r.n[k], 0.0);
    EXPECT_LE(r.n[k], std::min(config.n_cap, max_multiplier(tasks[hc[k]])) +
                          1e-9);
  }
}

TEST(OptimizeGa, DeterministicInSeed) {
  const mc::TaskSet tasks = sample_set(0.5, 8);
  OptimizerConfig config;
  config.ga.seed = 99;
  const OptimizationResult a = optimize_multipliers_ga(tasks, config);
  const OptimizationResult b = optimize_multipliers_ga(tasks, config);
  EXPECT_EQ(a.n, b.n);
}

TEST(OptimizeGa, DefaultConfigReturnsRunGaWinner) {
  // The optimizer runs the island engine and picks ga::best_of_state; with
  // the default plan and elitism that must be run_ga's hall-of-fame genome
  // bit for bit. The overloaded set (U_HC^HI = 1.2) fails Eq. 8 at every
  // genome, so its objective is a plateau at 0 where every individual
  // ties and only the tie-break decides the winner.
  std::vector<mc::TaskSet> sets;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL})
    for (const double u : {0.5, 0.8, 0.95}) sets.push_back(sample_set(u, seed));
  sets.push_back(sample_set(1.2, 14));
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (const std::uint64_t ga_seed : {1ULL, 7ULL}) {
      OptimizerConfig config;
      config.ga.seed = ga_seed;
      const OptimizationResult got =
          optimize_multipliers_ga(sets[s], config);
      const ga::GaResult want =
          ga::run_ga(*make_multiplier_problem(sets[s], config.n_cap),
                     config.ga);
      EXPECT_EQ(got.n, want.best.genes) << "set " << s << " seed " << ga_seed;
      EXPECT_EQ(got.breakdown.objective, want.best.fitness)
          << "set " << s << " seed " << ga_seed;
    }
  }
  OptimizerConfig config;
  EXPECT_EQ(optimize_multipliers_ga(sets.back(), config).breakdown.objective,
            0.0);
}

TEST(OptimizeGa, NoHcTasksThrows) {
  mc::TaskSet tasks;
  tasks.add(mc::McTask::low("l", 5.0, 100.0));
  EXPECT_THROW((void)optimize_multipliers_ga(tasks, {}),
               std::invalid_argument);
}

TEST(OptimizeGa, ZeroElitismThrows) {
  OptimizerConfig config;
  config.ga.elitism = 0;
  EXPECT_THROW((void)optimize_multipliers_ga(sample_set(0.5, 8), config),
               std::invalid_argument);
}

TEST(OptimizeGa, FeasibleResultForModerateLoad) {
  const mc::TaskSet tasks = sample_set(0.6, 9);
  OptimizerConfig config;
  config.ga.seed = 9;
  const OptimizationResult r = optimize_multipliers_ga(tasks, config);
  EXPECT_TRUE(r.breakdown.feasible);
  EXPECT_GT(r.breakdown.objective, 0.0);
  EXPECT_LT(r.breakdown.p_ms, 1.0);
}

}  // namespace
}  // namespace mcs::core
