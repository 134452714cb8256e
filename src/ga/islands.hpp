// Island-model layer over the generational GA engine.
//
// N per-island populations evolve independently and exchange their best
// individuals on a fixed schedule (ring topology). The run is organized in
// *epochs*: epoch e covers the generations [e*interval, (e+1)*interval)
// and starts from a fresh counter-based RNG stream, so an epoch is a pure
// function of (previous state, island index, epoch number). The island
// goldens and the benchmark digests pin this reseeding rule, so it stays
// even though every epoch now runs in one process.
//
// Determinism contract (same as the rest of the repo):
//  * island i's base seed is index_seed(ga.seed, i) — except islands == 1,
//    which uses ga.seed directly so `islands=1, migration_interval=0`
//    reproduces run_ga bit for bit;
//  * epoch e > 0 reseeds island i from index_seed(base, e); no RNG state
//    crosses an epoch boundary;
//  * migration replaces the worst-K residents of island i with copies of
//    the top-K of island i-1 (mod N), all read from the pre-epoch state;
//  * fitness evaluation is memoized in a GenomeFitCache; hit/miss
//    classification runs sequentially on the caller thread, only the miss
//    batch fans out, so counts and bits are --jobs-invariant.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ga/engine.hpp"

namespace mcs::ga {

/// Island topology knobs, carried separately from GaConfig so callers
/// (core/optimizer, optimize_ml_ga, the CLI) can default them to the
/// monolithic single-population behaviour.
struct IslandPlan {
  std::size_t islands = 1;             ///< number of populations
  std::size_t migration_interval = 0;  ///< generations per epoch; 0 = never
  std::size_t migrants = 2;            ///< top-K exchanged at each boundary
};

/// Full configuration of an island run.
struct IslandGaConfig {
  GaConfig ga;      ///< per-island hyper-parameters; ga.seed is the base seed
  IslandPlan plan;
  /// Warm-start genomes injected into every island's initial population
  /// (overwriting the last members after the usual random draws, so the
  /// RNG stream is unchanged). Genomes are adapted to the problem: only
  /// the first min(dimension, genome length) genes are copied onto the
  /// random member, then clamped to bounds — neighbouring sweep cells may
  /// have a different HC-task count.
  std::vector<Genome> seed_genomes;
};

/// Genome -> fitness memo for one problem (every key has the length of
/// the first). Keys compare by gene *bit patterns*, so lookup can never
/// confuse two distinct genomes, and -0.0 and 0.0 are distinct keys. The
/// keys sit back to back in fixed-size blocks behind an open-addressing
/// table of entry indices, so an entry costs no allocation of its own and
/// growth never copies keys. The table is never iterated, so its hash has
/// no effect on any result.
class GenomeFitCache {
 public:
  /// The entry index of `genes` and whether it was just added. A new
  /// entry's fitness is NaN (pending) until the caller stores the
  /// evaluated value, which sanitize_fitness keeps from ever being NaN.
  /// Throws std::invalid_argument on a key of another length.
  [[nodiscard]] std::pair<std::size_t, bool> lookup_or_add(
      const Genome& genes);

  [[nodiscard]] double& fitness(std::size_t entry) { return fitness_[entry]; }

  /// Drops every entry from index `entries` on (rolls back pending ones).
  void truncate(std::size_t entries);

  [[nodiscard]] std::size_t size() const { return fitness_.size(); }

 private:
  [[nodiscard]] const double* key(std::size_t entry) const;
  void rebuild(std::size_t bucket_count);

  std::size_t dimension_ = 0;
  std::size_t keys_per_block_ = 1;
  std::vector<std::vector<double>> blocks_;  ///< keys_per_block_ keys each
  std::vector<double> fitness_;              ///< per entry
  std::vector<std::uint64_t> hashes_;        ///< per entry, for rebuild
  std::vector<std::size_t> buckets_;         ///< entry + 1; 0 = empty
};

/// Cost counters of an island run. `evaluations` counts actual
/// Problem::evaluate calls and is always equal to `cache_misses`;
/// memoization hits are reported separately so cost columns stay honest.
struct IslandStats {
  std::size_t evaluations = 0;   ///< fitness calls performed (== misses)
  std::size_t cache_hits = 0;    ///< evaluations avoided by the memo
  std::size_t cache_misses = 0;  ///< distinct genomes actually evaluated
  std::size_t migrations = 0;    ///< immigrant individuals applied
};

/// Per-island populations, indexed [island][member].
using IslandState = std::vector<std::vector<Individual>>;

/// Result of an island run.
struct IslandGaResult {
  Individual best;          ///< hall-of-fame (run_ga-compatible tracking)
  IslandState final_state;  ///< end-of-run populations
  std::vector<std::vector<GenerationStats>> history;  ///< per island
  IslandStats stats;
};

/// Base RNG seed of island `island` (see the determinism contract above).
[[nodiscard]] std::uint64_t island_seed(const IslandGaConfig& config,
                                        std::size_t island);

/// Number of epochs the run is divided into (>= 1).
[[nodiscard]] std::size_t epoch_count(const IslandGaConfig& config);

/// Generation span [begin, end) covered by `epoch`.
[[nodiscard]] std::pair<std::size_t, std::size_t> epoch_generations(
    const IslandGaConfig& config, std::size_t epoch);

/// Evolves every island of `state` through one epoch: for epoch 0,
/// draws fresh random populations (plus seed-genome injection); for
/// epoch > 0, first applies the ring migration due at the boundary
/// (reading emigrants from the pre-epoch `state`), then runs the epoch's
/// generations in lockstep with memoized batched evaluation. For
/// epoch > 0 every island of `state` must hold an evaluated population
/// of the configured size (std::runtime_error otherwise). `history`, when
/// non-null, receives one GenerationStats per generation per island;
/// `hall_of_fame`, when non-null, tracks the best individual ever seen
/// exactly as run_ga does.
void evolve_islands_epoch(const Problem& problem, const IslandGaConfig& config,
                          std::size_t epoch, IslandState& state,
                          GenomeFitCache& cache, IslandStats& stats,
                          std::vector<std::vector<GenerationStats>>* history,
                          Individual* hall_of_fame);

/// First individual with maximal fitness, scanning islands then members
/// (the deterministic tie-break of the optimizer's winner). Requires a
/// non-empty, evaluated state.
[[nodiscard]] Individual best_of_state(const IslandState& state);

/// Runs the whole island GA in process (all islands, all epochs, one
/// persistent memo cache). With plan = {1, 0, *} and no seed genomes this
/// reproduces run_ga(problem, config.ga) bit for bit in best and history;
/// only the evaluation count differs (the memo skips duplicate genomes).
[[nodiscard]] IslandGaResult run_island_ga(const Problem& problem,
                                           const IslandGaConfig& config);

}  // namespace mcs::ga
