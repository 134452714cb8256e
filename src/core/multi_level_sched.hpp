// Scheduling analysis and multiplier optimization for systems with more
// than two criticality levels — the paper's future work implemented:
// "we would extend our scheme for systems with more than two criticality
//  levels. Based on that, we would present a scheduling algorithm and the
//  optimization problem to execute the lower-criticality tasks in higher
//  modes."
//
// Model (Vestal, L levels): task tau_i has criticality level l_i in
// {1..L} and a WCET ladder C_i(1) <= ... <= C_i(l_i), the top rung pinned
// at its certified pessimistic WCET. In system mode m:
//   * tasks with l_i >= m run with budget C_i(m);
//   * tasks with l_i < m either are dropped (rho = 0) or continue with a
//     degraded budget rho * C_i(l_i) (the future-work sentence).
// Mode m escalates to m+1 when a task with l_i > m exceeds C_i(m); tasks
// at l_i == m are budget-enforced and cannot escalate the system.
//
// Schedulability: the SMC-style utilization condition U(m) <= 1 per mode,
// with U(m) charging running budgets plus degraded lower-criticality
// budgets. Ladder rungs come from Eq. 6 per mode
// (C_i(m) = ACET_i + n_{i,m} * sigma_i, clamped by Eq. 9), the per-mode
// escalation probability from the generalized Eq. 10, and the objective
// generalizes Eq. 13:
//     maximize sum_{m=1}^{L-1} (1 - P_esc(m)) * slack(m),
// slack(m) = 1 - U(m) — the capacity each mode keeps for additional work,
// weighted by the probability of actually operating there.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ga/engine.hpp"
#include "ga/islands.hpp"

namespace mcs::core {

/// One task of a multi-level system (times in ms).
struct MlTask {
  std::string name;
  std::size_t level = 1;   ///< criticality level l_i in [1, system levels]
  double period = 1.0;
  double acet = 0.0;
  double sigma = 0.0;
  double wcet_pes = 0.0;   ///< certified bound (top ladder rung)
};

/// A multi-level system.
struct MlSystem {
  std::size_t levels = 2;      ///< L >= 2
  std::vector<MlTask> tasks;
  /// Degraded-budget fraction for tasks below the running mode (0 =
  /// drop-all; 0.5 mirrors Liu [2]).
  double rho = 0.0;

  /// Structural validity: L >= 2, every task level in [1, L], positive
  /// periods/ACETs, wcet_pes >= acet, rho in [0, 1].
  [[nodiscard]] bool valid() const;

  /// Genome length for the optimizer: one multiplier increment per task
  /// per rung below its top (sum of (l_i - 1)).
  [[nodiscard]] std::size_t genome_length() const;
};

/// Budgets per task per mode (rung m-1 = budget in mode m; tasks have
/// l_i rungs).
struct MlAssignment {
  std::vector<std::vector<double>> budgets;
  std::vector<std::vector<double>> multipliers;  ///< effective n_{i,m}
};

/// Per-mode analysis of an assignment.
struct MlEvaluation {
  std::vector<double> mode_utilization;          ///< U(m), m = 1..L
  std::vector<double> escalation_probability;    ///< P_esc(m), m = 1..L-1
  double objective = 0.0;                        ///< generalized Eq. 13
  bool feasible = false;                         ///< U(m) <= 1 for all m
};

/// Decodes a genome of non-negative multiplier increments into ladders:
/// n_{i,1} = d_1, n_{i,m} = n_{i,m-1} + d_m (monotone by construction),
/// budgets clamped into [ACET, wcet_pes], top rung pinned at wcet_pes.
/// Throws std::invalid_argument on size mismatch or an invalid system.
[[nodiscard]] MlAssignment decode_ml_assignment(const MlSystem& system,
                                                std::span<const double>
                                                    increments);

/// Evaluates an assignment: utilizations, escalation bounds, objective.
[[nodiscard]] MlEvaluation evaluate_ml_assignment(
    const MlSystem& system, const MlAssignment& assignment);

/// Result of the GA optimization.
struct MlOptimizationResult {
  MlAssignment assignment;
  MlEvaluation evaluation;
  std::vector<double> increments;  ///< the winning genome
};

/// Optimizes the multiplier increments with the island-model GA (paper
/// hyper-params) and returns the ga::best_of_state winner. `increment_cap`
/// bounds each per-rung increment. The default `plan` (1 island, no
/// migration) returns the genes the single-population engine run_ga
/// would, as long as config.elitism is the default 1 (see
/// optimize_multipliers_ga). Throws std::invalid_argument on elitism 0.
[[nodiscard]] MlOptimizationResult optimize_ml_ga(
    const MlSystem& system, const ga::GaConfig& config = {},
    double increment_cap = 16.0, const ga::IslandPlan& plan = {});

}  // namespace mcs::core
