// Tests for ga/islands.hpp: the islands=1 ≡ run_ga oracle, --jobs and
// shard-slice invariance, ring migration mechanics, memoization
// accounting, and warm-start injection.
#include "ga/islands.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace mcs::ga {
namespace {

/// Multi-dimensional sphere: maximize -sum (x_i - i)^2 over [0, 10]^4,
/// counting actual evaluate() calls.
class Sphere final : public Problem {
 public:
  [[nodiscard]] std::size_t dimension() const override { return 4; }
  [[nodiscard]] double lower_bound(std::size_t) const override { return 0.0; }
  [[nodiscard]] double upper_bound(std::size_t) const override { return 10.0; }
  [[nodiscard]] double evaluate(std::span<const double> g) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    double s = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double d = g[i] - static_cast<double>(i);
      s -= d * d;
    }
    return s;
  }
  mutable std::atomic<std::size_t> calls{0};
};

/// RAII guard so a test's --jobs override never leaks into other tests.
class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) : saved_(common::default_jobs()) {
    common::set_default_jobs(jobs);
  }
  ~JobsGuard() { common::set_default_jobs(saved_); }

 private:
  std::size_t saved_;
};

IslandGaConfig small_config() {
  IslandGaConfig config;
  config.ga.population_size = 14;
  config.ga.generations = 18;
  config.ga.seed = 21;
  config.plan.islands = 4;
  config.plan.migration_interval = 5;
  config.plan.migrants = 2;
  return config;
}

/// FNV-1a over every observable bit of an island result.
std::uint64_t island_result_hash(const IslandGaResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  for (const double g : r.best.genes) mix(bits(g));
  mix(bits(r.best.fitness));
  for (const auto& history : r.history)
    for (const GenerationStats& g : history) {
      mix(bits(g.best));
      mix(bits(g.mean));
      mix(bits(g.worst));
    }
  for (const auto& population : r.final_state)
    for (const Individual& ind : population) {
      for (const double g : ind.genes) mix(bits(g));
      mix(bits(ind.fitness));
    }
  mix(r.stats.evaluations);
  mix(r.stats.cache_hits);
  mix(r.stats.cache_misses);
  mix(r.stats.migrations);
  return h;
}

TEST(GaIslands, SingleIslandNoMigrationReproducesRunGa) {
  // The oracle of the layer: plan {islands=1, interval=0} must walk the
  // exact RNG stream and evolution path of run_ga — best genome, best
  // fitness and the full per-generation history, bit for bit. Only the
  // evaluation count may differ (the memo skips duplicate genomes).
  const Sphere problem;
  IslandGaConfig config;
  config.ga.population_size = 20;
  config.ga.generations = 25;
  config.ga.seed = 77;
  config.plan = {1, 0, 2};

  const GaResult mono = run_ga(problem, config.ga);
  const IslandGaResult isl = run_island_ga(problem, config);

  EXPECT_EQ(isl.best.genes, mono.best.genes);
  EXPECT_EQ(isl.best.fitness, mono.best.fitness);
  ASSERT_EQ(isl.history.size(), 1U);
  ASSERT_EQ(isl.history[0].size(), mono.history.size());
  for (std::size_t g = 0; g < mono.history.size(); ++g) {
    EXPECT_EQ(isl.history[0][g].best, mono.history[g].best) << "gen " << g;
    EXPECT_EQ(isl.history[0][g].mean, mono.history[g].mean) << "gen " << g;
    EXPECT_EQ(isl.history[0][g].worst, mono.history[g].worst) << "gen " << g;
  }
  EXPECT_LE(isl.stats.evaluations, mono.evaluations);
}

TEST(GaIslands, BitIdenticalAcrossJobs) {
  const Sphere problem;
  std::uint64_t baseline = 0;
  {
    const JobsGuard guard(1);
    baseline = island_result_hash(run_island_ga(problem, small_config()));
  }
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const JobsGuard guard(jobs);
    EXPECT_EQ(island_result_hash(run_island_ga(problem, small_config())),
              baseline)
        << "jobs " << jobs;
  }
}

TEST(GaIslands, ShardedEpochsReproduceFullRun) {
  // A shard owning islands [b, e) of one epoch and reading the full
  // previous state must produce exactly the rows of the unsharded run —
  // the property the mcs-cli --shard/--state-in dataflow is built on.
  const Sphere problem;
  const IslandGaConfig config = small_config();

  IslandState full;
  GenomeFitCache full_cache;
  IslandStats full_stats;
  const std::size_t epochs = epoch_count(config);
  ASSERT_GT(epochs, 1U);

  IslandState sharded;
  for (std::size_t e = 0; e < epochs; ++e) {
    evolve_islands_epoch(problem, config, e, full, 0, config.plan.islands,
                         full_cache, full_stats, nullptr, nullptr);
    // Two shards own islands [0, 2) and [2, 4); each reads the full
    // previous state and writes only its own rows. Fresh caches per
    // (shard, epoch) mimic independent processes.
    IslandState next = sharded;
    for (const auto& [b, eend] :
         {std::pair<std::size_t, std::size_t>{0, 2}, {2, 4}}) {
      IslandState scratch = sharded;
      GenomeFitCache cache;
      IslandStats stats;
      evolve_islands_epoch(problem, config, e, scratch, b, eend, cache, stats,
                           nullptr, nullptr);
      if (next.size() < scratch.size()) next.resize(scratch.size());
      for (std::size_t i = b; i < eend; ++i) next[i] = scratch[i];
    }
    sharded = std::move(next);

    ASSERT_EQ(sharded.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(sharded[i].size(), full[i].size()) << "island " << i;
      for (std::size_t j = 0; j < full[i].size(); ++j) {
        EXPECT_EQ(sharded[i][j].genes, full[i][j].genes)
            << "epoch " << e << " island " << i << " member " << j;
        EXPECT_EQ(sharded[i][j].fitness, full[i][j].fitness)
            << "epoch " << e << " island " << i << " member " << j;
      }
    }
  }
}

TEST(GaIslands, MigrationReplacesWorstWithNeighbourBest) {
  // Direct mechanics check on a handcrafted state: before epoch 1, the
  // top-K of island i-1 (ring) must land in place of the worst-K of
  // island i, all read from the pre-epoch state.
  const Sphere problem;
  IslandGaConfig config;
  config.ga.population_size = 4;
  config.ga.generations = 2;  // epoch 1 covers generation [1, 2)
  config.ga.seed = 5;
  config.plan = {2, 1, 1};

  IslandState state(2);
  const auto make = [&](double x) {
    Individual ind;
    ind.genes = {x, x, x, x};
    double s = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      const double d = x - static_cast<double>(i);
      s -= d * d;
    }
    ind.fitness = s;
    ind.evaluated = true;
    return ind;
  };
  // Island 0 peaks at genes near the optimum; island 1 is poor.
  state[0] = {make(1.5), make(0.0), make(9.0), make(8.0)};
  state[1] = {make(10.0), make(9.5), make(9.9), make(9.8)};
  const Individual best_of_0 = state[0][0];  // top-1 of island 0

  GenomeFitCache cache;
  IslandStats stats;
  IslandState migrated = state;
  evolve_islands_epoch(problem, config, 1, migrated, 0, 2, cache, stats,
                       nullptr, nullptr);
  EXPECT_EQ(stats.migrations, 2U);  // one immigrant per island

  // The epoch breeds one generation after migrating, so assert through
  // elitism (elitism = 1 carries each island's post-migration best into
  // the bred population unchanged): island 1's post-migration best is
  // island 0's emigrant (fitness -5 vs. residents around -260), and
  // island 0's own best must still be present — migration replaces the
  // WORST residents, never the top.
  bool island1_carries_emigrant = false;
  for (const Individual& ind : migrated[1])
    if (ind.genes == best_of_0.genes) island1_carries_emigrant = true;
  EXPECT_TRUE(island1_carries_emigrant);
  bool island0_keeps_own_best = false;
  for (const Individual& ind : migrated[0])
    if (ind.genes == best_of_0.genes) island0_keeps_own_best = true;
  EXPECT_TRUE(island0_keeps_own_best);
}

TEST(GaIslands, EvaluationsEqualCacheMisses) {
  const Sphere problem;
  const IslandGaResult r = run_island_ga(problem, small_config());
  EXPECT_EQ(r.stats.evaluations, r.stats.cache_misses);
  EXPECT_EQ(r.stats.evaluations, problem.calls.load());
  EXPECT_GT(r.stats.cache_hits, 0U);
}

TEST(GaIslands, WarmStartInjectsSeedGenomes) {
  const Sphere problem;
  IslandGaConfig config = small_config();
  config.ga.generations = 0;  // initial populations only
  const Genome optimum = {0.0, 1.0, 2.0, 3.0};
  config.seed_genomes = {optimum, {9.0, 9.0}};  // second adapts dimension

  const IslandGaResult r = run_island_ga(problem, config);
  for (std::size_t i = 0; i < config.plan.islands; ++i) {
    const auto& population = r.final_state[i];
    EXPECT_EQ(population[population.size() - 2].genes, optimum)
        << "island " << i;
    // The short genome overwrites only its first two genes; the rest
    // keep the random draw, so just check the prefix landed.
    EXPECT_EQ(population.back().genes[0], 9.0) << "island " << i;
    EXPECT_EQ(population.back().genes[1], 9.0) << "island " << i;
  }
  EXPECT_EQ(r.best.fitness, 0.0);  // the injected optimum wins immediately
}

TEST(GaIslands, WarmStartDoesNotPerturbRandomDraws) {
  // Injection overwrites tail members after the random draws, so the
  // untouched members must be bit-identical with and without it.
  const Sphere problem;
  IslandGaConfig cold = small_config();
  cold.ga.generations = 0;
  IslandGaConfig warm = cold;
  warm.seed_genomes = {{5.0, 5.0, 5.0, 5.0}};

  const IslandGaResult a = run_island_ga(problem, cold);
  const IslandGaResult b = run_island_ga(problem, warm);
  for (std::size_t i = 0; i < cold.plan.islands; ++i)
    for (std::size_t j = 0; j + 1 < a.final_state[i].size(); ++j)
      EXPECT_EQ(a.final_state[i][j].genes, b.final_state[i][j].genes)
          << "island " << i << " member " << j;
}

TEST(GaIslands, NanFitnessIsSanitizedInIslandPath) {
  class NanSphere final : public Problem {
   public:
    [[nodiscard]] std::size_t dimension() const override { return 2; }
    [[nodiscard]] double lower_bound(std::size_t) const override {
      return 0.0;
    }
    [[nodiscard]] double upper_bound(std::size_t) const override {
      return 10.0;
    }
    [[nodiscard]] double evaluate(std::span<const double> g) const override {
      if (g[0] > 5.0) return std::nan("");
      return -(g[0] - 3.0) * (g[0] - 3.0) - g[1] * g[1];
    }
  };
  const NanSphere problem;
  IslandGaConfig config = small_config();
  const IslandGaResult r = run_island_ga(problem, config);
  EXPECT_TRUE(std::isfinite(r.best.fitness));
  EXPECT_LE(r.best.genes[0], 5.0);
}

TEST(GaIslands, Validation) {
  const Sphere problem;
  IslandGaConfig config = small_config();
  config.plan.islands = 0;
  EXPECT_THROW((void)run_island_ga(problem, config), std::invalid_argument);
  config = small_config();
  config.ga.population_size = 1;
  EXPECT_THROW((void)run_island_ga(problem, config), std::invalid_argument);

  // A later epoch must refuse a missing/malformed previous state.
  IslandState empty;
  GenomeFitCache cache;
  IslandStats stats;
  EXPECT_THROW(evolve_islands_epoch(problem, small_config(), 1, empty, 0, 4,
                                    cache, stats, nullptr, nullptr),
               std::runtime_error);
}

TEST(GaIslands, BestOfStateScansIslandMajor) {
  IslandState state(2);
  Individual a;
  a.genes = {1.0};
  a.fitness = 3.0;
  a.evaluated = true;
  Individual b = a;
  b.genes = {2.0};
  b.fitness = 7.0;
  Individual c = a;
  c.genes = {3.0};
  c.fitness = 7.0;  // tie with b: first in scan order must win
  state[0] = {a, b};
  state[1] = {c};
  EXPECT_EQ(best_of_state(state).genes, b.genes);
  state[1][0].evaluated = false;
  EXPECT_THROW((void)best_of_state(state), std::invalid_argument);
}

TEST(GenomeFitCache, LookupAddAndTruncate) {
  // 3000 keys of length 3 span several key blocks and table rebuilds.
  GenomeFitCache cache;
  auto key = [](std::size_t i) {
    return Genome{static_cast<double>(i), 0.5, -static_cast<double>(i)};
  };
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto [entry, added] = cache.lookup_or_add(key(i));
    ASSERT_TRUE(added);
    ASSERT_EQ(entry, i);
    EXPECT_TRUE(std::isnan(cache.fitness(entry)));  // pending
    cache.fitness(entry) = static_cast<double>(i);
  }
  for (std::size_t i = 0; i < 3000; i += 7) {
    const auto [entry, added] = cache.lookup_or_add(key(i));
    EXPECT_FALSE(added);
    EXPECT_EQ(cache.fitness(entry), static_cast<double>(i));
  }
  // Bit patterns, not values: -0.0 and 0.0 are distinct keys.
  using Slot = std::pair<std::size_t, bool>;
  EXPECT_EQ(cache.lookup_or_add({-0.0, 0.5, -0.0}), Slot(3000, true));
  EXPECT_THROW((void)cache.lookup_or_add({1.0}), std::invalid_argument);

  cache.truncate(1500);
  EXPECT_EQ(cache.size(), 1500U);
  EXPECT_EQ(cache.lookup_or_add(key(1499)), Slot(1499, false));
  EXPECT_EQ(cache.lookup_or_add(key(2000)), Slot(1500, true));
}

TEST(GaIslands, FailedBatchLeavesNoPendingEntry) {
  // A throwing fitness call must not leave pending entries behind that a
  // later batch would read as cached fitness.
  class Flaky final : public Problem {
   public:
    [[nodiscard]] std::size_t dimension() const override { return 2; }
    [[nodiscard]] double lower_bound(std::size_t) const override {
      return 0.0;
    }
    [[nodiscard]] double upper_bound(std::size_t) const override {
      return 1.0;
    }
    [[nodiscard]] double evaluate(std::span<const double> g) const override {
      if (fail) throw std::runtime_error("flaky");
      return g[0] + g[1];
    }
    bool fail = true;
  };
  Flaky problem;
  IslandGaConfig config = small_config();
  config.plan.islands = 1;
  config.plan.migration_interval = 0;
  GenomeFitCache cache;
  IslandStats stats;
  IslandState state;
  EXPECT_THROW(evolve_islands_epoch(problem, config, 0, state, 0, 1, cache,
                                    stats, nullptr, nullptr),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0U);
  problem.fail = false;
  state.clear();
  evolve_islands_epoch(problem, config, 0, state, 0, 1, cache, stats,
                       nullptr, nullptr);
  for (const Individual& ind : state[0]) {
    ASSERT_TRUE(ind.evaluated);
    EXPECT_EQ(ind.fitness, ind.genes[0] + ind.genes[1]);
  }
}

}  // namespace
}  // namespace mcs::ga
