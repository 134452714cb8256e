// Solvers for the Eq. 13 optimization problem: per-task multipliers via
// the genetic algorithm (the paper's approach), and a uniform-n sweep (the
// Section V-B analysis and a deterministic fallback/ablation baseline).
#pragma once

#include <memory>
#include <vector>

#include "core/objective.hpp"
#include "ga/engine.hpp"
#include "ga/islands.hpp"
#include "mc/taskset.hpp"

namespace mcs::core {

/// Result of an optimization run.
struct OptimizationResult {
  std::vector<double> n;          ///< chosen multipliers (per HC task)
  ObjectiveBreakdown breakdown;   ///< objective at the chosen point
  /// Search cost: fitness calls and memo hit/miss counts.
  ga::IslandStats search;
};

/// Knobs for the GA-based optimizer. The GA hyper-parameters default to
/// the paper's settings (see ga::GaConfig); `n_cap` bounds the search
/// range for tasks whose Eq. 9 headroom is very large (bounds the genome
/// box; the Eq. 9 clamp still applies inside the objective).
struct OptimizerConfig {
  ga::GaConfig ga;
  double n_cap = 64.0;
  /// Island-model knobs. The default (1 island, no migration) is the
  /// paper's single-population GA.
  ga::IslandPlan islands;
  /// Warm-start genomes injected into every island's initial population
  /// (see ga::IslandGaConfig::seed_genomes), e.g. the winners of a
  /// neighbouring sweep cell.
  std::vector<ga::Genome> warm_start;
};

/// The Eq. 13 GA problem itself — genes are the per-HC-task multipliers
/// n_i in [0, min(n_cap, n_max(i))]. Exposed so drivers can feed the raw
/// problem to the island-layer primitives (the sharded `mcs-cli optimize
/// --state-csv` epoch dataflow); `tasks` must outlive the problem.
/// Requires at least one HC task with stats.
[[nodiscard]] std::unique_ptr<ga::Problem> make_multiplier_problem(
    const mc::TaskSet& tasks, double n_cap = 64.0);

/// Optimizes per-task multipliers with the GA (Section IV-C "Problem
/// Solving"): ga::run_island_ga, whose winner is picked by
/// ga::best_of_state (the same rule the sharded CLI --finalize path
/// applies). With the default islands plan and no warm start, the
/// populations are those of the single-population engine run_ga on
/// make_multiplier_problem(tasks, n_cap) bit for bit, so the winner has
/// the fitness of run_ga's hall-of-fame individual. That rests on
/// config.ga.elitism >= 1, which keeps the best individual in the final
/// population, so elitism 0 is rejected. With the default elitism of 1
/// the elite is the first fittest individual of its generation, so even
/// on fitness ties the genes are run_ga's. Requires at least one HC task
/// with stats; throws std::invalid_argument otherwise.
[[nodiscard]] OptimizationResult optimize_multipliers_ga(
    const mc::TaskSet& tasks, const OptimizerConfig& config = {});

/// One point of a uniform-n sweep.
struct UniformSweepPoint {
  double n = 0.0;
  ObjectiveBreakdown breakdown;
};

/// The exact n grid sweep_uniform_n evaluates: the legacy loop's
/// repeated-addition recurrence from n_min (note n_min + i*step is not
/// bit-identical to it). Exposed so sharded drivers can evaluate a
/// contiguous slice of the very same grid values.
/// Requires n_min >= 0, step > 0, n_max >= n_min.
[[nodiscard]] std::vector<double> uniform_n_grid(double n_min, double n_max,
                                                 double step);

/// Evaluates a uniform multiplier for all HC tasks at each value of
/// `grid` (pure analytic work, runs in parallel).
[[nodiscard]] std::vector<UniformSweepPoint> evaluate_uniform_n(
    const mc::TaskSet& tasks, const std::vector<double>& grid);

/// Evaluates a uniform multiplier n for all HC tasks over
/// [n_min, n_max] in steps of `step` (Fig. 2 / Fig. 3 analyses).
/// Requires n_min >= 0, step > 0, n_max >= n_min.
[[nodiscard]] std::vector<UniformSweepPoint> sweep_uniform_n(
    const mc::TaskSet& tasks, double n_min, double n_max, double step);

/// The sweep point with the largest objective (ties: smallest n).
[[nodiscard]] UniformSweepPoint best_uniform_n(
    const mc::TaskSet& tasks, double n_min, double n_max, double step);

}  // namespace mcs::core
