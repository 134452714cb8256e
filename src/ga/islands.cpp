#include "ga/islands.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mcs::ga {

namespace {

void validate_island_config(const Problem& problem,
                            const IslandGaConfig& config) {
  validate_ga_config(problem, config.ga, "run_island_ga");
  if (config.plan.islands == 0)
    throw std::invalid_argument("run_island_ga: islands must be >= 1");
}

bool migration_enabled(const IslandGaConfig& config) {
  return config.plan.islands > 1 && config.plan.migration_interval > 0 &&
         config.plan.migrants > 0;
}

/// Checks that island `i` of `state` carries an evaluated population of
/// the configured shape (used on every island a later epoch reads).
void require_population(const IslandState& state, std::size_t i,
                        const Problem& problem, const IslandGaConfig& config) {
  if (i >= state.size() || state[i].size() != config.ga.population_size)
    throw std::runtime_error(
        "evolve_islands_epoch: previous state is missing island " +
        std::to_string(i));
  for (const Individual& ind : state[i])
    if (!ind.evaluated || ind.genes.size() != problem.dimension())
      throw std::runtime_error(
          "evolve_islands_epoch: malformed individual in island " +
          std::to_string(i));
}

/// Copies of the top-K individuals of `population` (fitness order, index
/// tie-break via partial_sort — the same selection the elitism step uses).
std::vector<Individual> top_k(const std::vector<Individual>& population,
                              std::size_t k) {
  std::vector<std::size_t> order(population.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return population[a].fitness > population[b].fitness;
                    });
  std::vector<Individual> out;
  out.reserve(k);
  for (std::size_t e = 0; e < k; ++e) out.push_back(population[order[e]]);
  return out;
}

/// Indices of the K least-fit members of `population`.
std::vector<std::size_t> worst_k(const std::vector<Individual>& population,
                                 std::size_t k) {
  std::vector<std::size_t> order(population.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return population[a].fitness < population[b].fitness;
                    });
  order.resize(k);
  return order;
}

/// Memoized batched evaluation of every unevaluated individual in the
/// first `islands` islands. Classification (hit / pending duplicate /
/// miss) runs sequentially on the caller thread in island-major
/// member-minor order, so the hit and miss counts are identical at every
/// --jobs value; only the de-duplicated miss batch fans out to the pool,
/// and results land by cache entry. Pending duplicates (the same new genome appearing several
/// times in one batch, e.g. a migrated elite cloned by selection) count
/// as hits: they share the entry and pay for one evaluation.
void evaluate_islands(IslandState& state, std::size_t islands,
                      const Problem& problem, GenomeFitCache& cache,
                      IslandStats& stats) {
  const std::size_t first_new = cache.size();
  std::vector<std::pair<Individual*, std::size_t>> pending;
  std::vector<const Genome*> batch;  // genome of entry first_new + k
  for (std::size_t i = 0; i < islands; ++i) {
    for (Individual& ind : state[i]) {
      if (ind.evaluated) continue;
      const auto [entry, added] = cache.lookup_or_add(ind.genes);
      if (added) {
        batch.push_back(&ind.genes);
        ++stats.cache_misses;
      } else {
        ++stats.cache_hits;
        if (!std::isnan(cache.fitness(entry))) {
          ind.fitness = cache.fitness(entry);
          ind.evaluated = true;
          continue;
        }
      }
      pending.emplace_back(&ind, entry);
    }
  }
  if (batch.empty()) return;
  std::vector<double> fitness;
  try {
    fitness = common::parallel_map(batch.size(), [&](std::size_t k) {
      return sanitize_fitness(problem.evaluate(*batch[k]));
    });
  } catch (...) {
    cache.truncate(first_new);
    throw;
  }
  stats.evaluations += batch.size();
  for (std::size_t k = 0; k < batch.size(); ++k)
    cache.fitness(first_new + k) = fitness[k];
  for (const auto& [ind, entry] : pending) {
    ind->fitness = cache.fitness(entry);
    ind->evaluated = true;
  }
}

/// run_ga-compatible hall-of-fame update over the first `islands`
/// islands: starting from unset, the first individual seeds it and later
/// ones replace it only on strictly greater fitness (first-of-equals
/// wins).
void update_hall_of_fame(const IslandState& state, std::size_t islands,
                         Individual* best) {
  if (best == nullptr) return;
  for (std::size_t i = 0; i < islands; ++i)
    for (const Individual& ind : state[i])
      if (!best->evaluated || ind.fitness > best->fitness) *best = ind;
}

}  // namespace

namespace {

/// Hash of a genome's bit patterns: four independent multiply lanes (one
/// multiply per gene) and a splitmix64 finish for the power-of-two table.
std::uint64_t genome_hash(const double* genes, std::size_t dimension) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  for (std::size_t i = 0; i < dimension; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &genes[i], sizeof(bits));
    lane[i % 4] = (lane[i % 4] ^ bits) * kMul;
  }
  std::uint64_t h = dimension;
  for (const std::uint64_t l : lane) h = (h ^ l ^ (l >> 32)) * kMul;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

const double* GenomeFitCache::key(std::size_t entry) const {
  return blocks_[entry / keys_per_block_].data() +
         (entry % keys_per_block_) * dimension_;
}

std::pair<std::size_t, bool> GenomeFitCache::lookup_or_add(
    const Genome& genes) {
  // 32 KiB blocks stay below malloc's mmap threshold, so a run's blocks
  // are recycled heap memory rather than fresh pages.
  constexpr std::size_t kBlockDoubles = 4096;
  if (fitness_.empty()) {
    dimension_ = genes.size();
    keys_per_block_ = std::max<std::size_t>(
        1, kBlockDoubles / std::max<std::size_t>(dimension_, 1));
  } else if (genes.size() != dimension_) {
    throw std::invalid_argument("GenomeFitCache: key length changed");
  }
  if (2 * (fitness_.size() + 1) > buckets_.size())
    rebuild(std::max<std::size_t>(64, 2 * buckets_.size()));
  const std::size_t mask = buckets_.size() - 1;
  const std::uint64_t hash = genome_hash(genes.data(), dimension_);
  for (std::size_t b = hash & mask;; b = (b + 1) & mask) {
    if (buckets_[b] == 0) {
      buckets_[b] = fitness_.size() + 1;
      if (fitness_.size() % keys_per_block_ == 0)
        blocks_.emplace_back().reserve(keys_per_block_ * dimension_);
      blocks_.back().insert(blocks_.back().end(), genes.begin(), genes.end());
      fitness_.push_back(std::numeric_limits<double>::quiet_NaN());
      hashes_.push_back(hash);
      return {fitness_.size() - 1, true};
    }
    const std::size_t entry = buckets_[b] - 1;
    if (dimension_ == 0 ||
        std::memcmp(key(entry), genes.data(), dimension_ * sizeof(double)) ==
            0)
      return {entry, false};
  }
}

void GenomeFitCache::truncate(std::size_t entries) {
  if (entries >= fitness_.size()) return;
  fitness_.resize(entries);
  hashes_.resize(entries);
  blocks_.resize((entries + keys_per_block_ - 1) / keys_per_block_);
  if (!blocks_.empty())
    blocks_.back().resize(
        (entries - (blocks_.size() - 1) * keys_per_block_) * dimension_);
  rebuild(buckets_.size());
}

void GenomeFitCache::rebuild(std::size_t bucket_count) {
  buckets_.assign(bucket_count, 0);
  const std::size_t mask = bucket_count - 1;
  for (std::size_t e = 0; e < fitness_.size(); ++e) {
    std::size_t b = hashes_[e] & mask;
    while (buckets_[b] != 0) b = (b + 1) & mask;
    buckets_[b] = e + 1;
  }
}

std::uint64_t island_seed(const IslandGaConfig& config, std::size_t island) {
  // A single island keeps the raw seed so `islands=1, interval=0` is
  // bit-identical to run_ga(config.ga).
  if (config.plan.islands <= 1) return config.ga.seed;
  return common::index_seed(config.ga.seed, island);
}

namespace {

std::size_t effective_interval(const IslandGaConfig& config) {
  if (config.plan.migration_interval == 0)
    return std::max<std::size_t>(config.ga.generations, 1);
  return config.plan.migration_interval;
}

}  // namespace

std::size_t epoch_count(const IslandGaConfig& config) {
  const std::size_t interval = effective_interval(config);
  return std::max<std::size_t>(
      1, (config.ga.generations + interval - 1) / interval);
}

std::pair<std::size_t, std::size_t> epoch_generations(
    const IslandGaConfig& config, std::size_t epoch) {
  const std::size_t interval = effective_interval(config);
  const std::size_t lo = std::min(epoch * interval, config.ga.generations);
  return {lo, std::min(lo + interval, config.ga.generations)};
}

void evolve_islands_epoch(const Problem& problem, const IslandGaConfig& config,
                          std::size_t epoch, IslandState& state,
                          GenomeFitCache& cache, IslandStats& stats,
                          std::vector<std::vector<GenerationStats>>* history,
                          Individual* hall_of_fame) {
  validate_island_config(problem, config);
  const std::size_t islands = config.plan.islands;
  if (epoch >= epoch_count(config))
    throw std::invalid_argument("evolve_islands_epoch: epoch out of range");
  if (state.size() < islands) state.resize(islands);
  if (history != nullptr && history->size() < islands)
    history->resize(islands);

  // Per-epoch counter-based RNG streams: nothing carries over from the
  // previous epoch. The island goldens pin this reseeding rule.
  std::vector<common::Rng> rngs;
  rngs.reserve(islands);
  for (std::size_t i = 0; i < islands; ++i) {
    const std::uint64_t base = island_seed(config, i);
    rngs.emplace_back(epoch == 0 ? base : common::index_seed(base, epoch));
  }

  if (epoch == 0) {
    for (std::size_t i = 0; i < islands; ++i) {
      common::Rng& rng = rngs[i];
      std::vector<Individual>& population = state[i];
      population.assign(config.ga.population_size, Individual{});
      for (Individual& ind : population)
        ind.genes = random_genome(problem, rng);
      // Warm start: overwrite the tail with the seed genomes. The random
      // draws above already happened, so the RNG stream (and with it the
      // rest of the run's structure) is independent of the injection.
      const std::size_t inject =
          std::min(config.seed_genomes.size(), population.size());
      for (std::size_t k = 0; k < inject; ++k) {
        Individual& target = population[population.size() - inject + k];
        const Genome& seed = config.seed_genomes[k];
        const std::size_t copy = std::min(seed.size(), target.genes.size());
        std::copy_n(seed.begin(), copy, target.genes.begin());
        clamp_to_bounds(target.genes, problem);
      }
    }
    evaluate_islands(state, islands, problem, cache, stats);
    update_hall_of_fame(state, islands, hall_of_fame);
  } else {
    for (std::size_t i = 0; i < islands; ++i)
      require_population(state, i, problem, config);
    if (migration_enabled(config)) {
      const std::size_t k =
          std::min(config.plan.migrants, config.ga.population_size);
      // Collect every island's emigrants before any island receives:
      // applied in place, island i's predecessor i-1 would pass on the
      // immigrants it had just received instead of its pre-epoch best.
      std::vector<std::vector<Individual>> emigrants(islands);
      for (std::size_t i = 0; i < islands; ++i)
        emigrants[i] = top_k(state[(i + islands - 1) % islands], k);
      for (std::size_t i = 0; i < islands; ++i) {
        const std::vector<std::size_t> victims = worst_k(state[i], k);
        for (std::size_t e = 0; e < k; ++e)
          state[i][victims[e]] = emigrants[i][e];
        stats.migrations += k;
      }
    }
  }

  const auto [gen_begin, gen_end] = epoch_generations(config, epoch);
  for (std::size_t gen = gen_begin; gen < gen_end; ++gen) {
    for (std::size_t i = 0; i < islands; ++i)
      state[i] = breed_generation(state[i], problem, config.ga, rngs[i]);
    evaluate_islands(state, islands, problem, cache, stats);
    if (history != nullptr)
      for (std::size_t i = 0; i < islands; ++i)
        (*history)[i].push_back(summarize_population(state[i]));
    update_hall_of_fame(state, islands, hall_of_fame);
  }
}

Individual best_of_state(const IslandState& state) {
  const Individual* best = nullptr;
  for (const std::vector<Individual>& population : state)
    for (const Individual& ind : population) {
      if (!ind.evaluated)
        throw std::invalid_argument("best_of_state: unevaluated individual");
      if (best == nullptr || ind.fitness > best->fitness) best = &ind;
    }
  if (best == nullptr)
    throw std::invalid_argument("best_of_state: empty state");
  return *best;
}

IslandGaResult run_island_ga(const Problem& problem,
                             const IslandGaConfig& config) {
  validate_island_config(problem, config);
  IslandGaResult result;
  result.final_state.assign(config.plan.islands, {});
  result.history.assign(config.plan.islands, {});
  GenomeFitCache cache;
  const std::size_t epochs = epoch_count(config);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch)
    evolve_islands_epoch(problem, config, epoch, result.final_state, cache,
                         result.stats, &result.history, &result.best);
  return result;
}

}  // namespace mcs::ga
