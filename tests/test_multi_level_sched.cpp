// Tests for core/multi_level_sched.hpp — the future-work scheduling and
// optimization extension for >2 criticality levels.
#include "core/multi_level_sched.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

namespace mcs::core {
namespace {

MlSystem three_level_system(double rho = 0.0) {
  MlSystem system;
  system.levels = 3;
  system.rho = rho;
  system.tasks = {
      {"top", 3, 100.0, 5.0, 1.0, 40.0},
      {"mid", 2, 150.0, 8.0, 2.0, 60.0},
      {"low", 1, 200.0, 10.0, 2.5, 30.0},
  };
  return system;
}

TEST(MlSystem, Validity) {
  EXPECT_TRUE(three_level_system().valid());
  MlSystem bad = three_level_system();
  bad.tasks[0].level = 5;  // above L
  EXPECT_FALSE(bad.valid());
  bad = three_level_system();
  bad.rho = 1.5;
  EXPECT_FALSE(bad.valid());
  bad = three_level_system();
  bad.tasks[1].wcet_pes = 1.0;  // below ACET
  EXPECT_FALSE(bad.valid());
}

TEST(MlSystem, GenomeLengthSumsRungs) {
  // Levels 3 + 2 + 1 -> increments 2 + 1 + 0 = 3.
  EXPECT_EQ(three_level_system().genome_length(), 3U);
}

TEST(DecodeMl, MonotoneLaddersToppedByPes) {
  const MlSystem system = three_level_system();
  // top: d = {2, 3} -> n = {2, 5}; mid: d = {4} -> n = {4}.
  const std::vector<double> genes = {2.0, 3.0, 4.0};
  const MlAssignment a = decode_ml_assignment(system, genes);
  ASSERT_EQ(a.budgets[0].size(), 3U);
  EXPECT_DOUBLE_EQ(a.budgets[0][0], 5.0 + 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(a.budgets[0][1], 5.0 + 5.0 * 1.0);
  EXPECT_DOUBLE_EQ(a.budgets[0][2], 40.0);  // pinned at pes
  EXPECT_DOUBLE_EQ(a.budgets[1][0], 8.0 + 4.0 * 2.0);
  EXPECT_DOUBLE_EQ(a.budgets[1][1], 60.0);
  EXPECT_DOUBLE_EQ(a.budgets[2][0], 30.0);  // level-1 task: only the pes rung
  for (const auto& ladder : a.budgets)
    for (std::size_t r = 1; r < ladder.size(); ++r)
      EXPECT_GE(ladder[r], ladder[r - 1]);
}

TEST(DecodeMl, ClampAtPes) {
  const MlSystem system = three_level_system();
  const std::vector<double> genes = {100.0, 100.0, 100.0};
  const MlAssignment a = decode_ml_assignment(system, genes);
  EXPECT_DOUBLE_EQ(a.budgets[0][0], 40.0);
  EXPECT_DOUBLE_EQ(a.budgets[0][1], 40.0);
  // Effective multiplier reflects the clamp: (40 - 5) / 1 = 35.
  EXPECT_DOUBLE_EQ(a.multipliers[0][0], 35.0);
}

TEST(DecodeMl, Validation) {
  const MlSystem system = three_level_system();
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW((void)decode_ml_assignment(system, wrong),
               std::invalid_argument);
  const std::vector<double> negative = {-1.0, 0.0, 0.0};
  EXPECT_THROW((void)decode_ml_assignment(system, negative),
               std::invalid_argument);
}

TEST(EvaluateMl, HandComputedUtilizations) {
  const MlSystem system = three_level_system();  // drop-all (rho = 0)
  const std::vector<double> genes = {2.0, 3.0, 4.0};
  const MlAssignment a = decode_ml_assignment(system, genes);
  const MlEvaluation e = evaluate_ml_assignment(system, a);
  ASSERT_EQ(e.mode_utilization.size(), 3U);
  // Mode 1: 7/100 + 16/150 + 30/200.
  EXPECT_NEAR(e.mode_utilization[0], 7.0 / 100 + 16.0 / 150 + 30.0 / 200,
              1e-12);
  // Mode 2: tasks at level >= 2 with their rung-2 budgets.
  EXPECT_NEAR(e.mode_utilization[1], 10.0 / 100 + 60.0 / 150, 1e-12);
  // Mode 3: only the top task, at pes.
  EXPECT_NEAR(e.mode_utilization[2], 40.0 / 100, 1e-12);
  EXPECT_TRUE(e.feasible);
  EXPECT_GT(e.objective, 0.0);
}

TEST(EvaluateMl, EscalationBoundsUseStrictlyHigherTasks) {
  const MlSystem system = three_level_system();
  const std::vector<double> genes = {2.0, 3.0, 4.0};
  const MlEvaluation e = evaluate_ml_assignment(
      system, decode_ml_assignment(system, genes));
  ASSERT_EQ(e.escalation_probability.size(), 2U);
  // Mode 1 escalates via "top" (n=2) and "mid" (n=4):
  // 1 - (1 - 1/5)(1 - 1/17).
  EXPECT_NEAR(e.escalation_probability[0],
              1.0 - (1.0 - 0.2) * (1.0 - 1.0 / 17.0), 1e-12);
  // Mode 2 escalates only via "top" at n=5: 1/26.
  EXPECT_NEAR(e.escalation_probability[1], 1.0 / 26.0, 1e-12);
}

TEST(EvaluateMl, DegradedContinuationChargesLowerTasks) {
  const MlSystem drop = three_level_system(0.0);
  const MlSystem degrade = three_level_system(0.5);
  const std::vector<double> genes = {2.0, 3.0, 4.0};
  const MlEvaluation e_drop = evaluate_ml_assignment(
      drop, decode_ml_assignment(drop, genes));
  const MlEvaluation e_deg = evaluate_ml_assignment(
      degrade, decode_ml_assignment(degrade, genes));
  // Mode 2 now also carries 0.5 * 30/200 of the level-1 task.
  EXPECT_NEAR(e_deg.mode_utilization[1],
              e_drop.mode_utilization[1] + 0.5 * 30.0 / 200.0, 1e-12);
  // Escalation bounds are unaffected (budget-enforced tasks don't switch).
  EXPECT_NEAR(e_deg.escalation_probability[0],
              e_drop.escalation_probability[0], 1e-12);
}

TEST(EvaluateMl, InfeasibleModeZeroesObjective) {
  MlSystem system = three_level_system();
  system.tasks[0].wcet_pes = 120.0;  // mode-3 utilization 1.2 > 1
  system.tasks[0].period = 100.0;
  const std::vector<double> genes = {1.0, 1.0, 1.0};
  const MlEvaluation e = evaluate_ml_assignment(
      system, decode_ml_assignment(system, genes));
  EXPECT_FALSE(e.feasible);
  EXPECT_DOUBLE_EQ(e.objective, 0.0);
}

TEST(OptimizeMl, BeatsNaiveCorners) {
  const MlSystem system = three_level_system();
  ga::GaConfig config;
  config.population_size = 40;
  config.generations = 60;
  config.seed = 5;
  const MlOptimizationResult best = optimize_ml_ga(system, config);
  ASSERT_TRUE(best.evaluation.feasible);
  // Compare against the all-zero corner (budgets at ACET everywhere).
  const std::vector<double> zeros(system.genome_length(), 0.0);
  const MlEvaluation corner = evaluate_ml_assignment(
      system, decode_ml_assignment(system, zeros));
  EXPECT_GE(best.evaluation.objective, corner.objective - 1e-9);
  // Dual-criticality degenerates correctly: two-level system optimum has
  // exactly one escalation bound.
  MlSystem dual = system;
  dual.levels = 2;
  for (auto& task : dual.tasks) task.level = std::min<std::size_t>(
      task.level, 2);
  const MlOptimizationResult dual_best = optimize_ml_ga(dual, config);
  EXPECT_EQ(dual_best.evaluation.escalation_probability.size(), 1U);
}

TEST(OptimizeMl, IslandPlanIsDeterministicAndAtLeastAsGood) {
  // The ladder GA rides the same island engine as the multiplier
  // optimizer: an island plan must be run-to-run deterministic, stay
  // feasible, and — searching 3 populations instead of 1 — never lose
  // to the all-zero corner either.
  const MlSystem system = three_level_system();
  ga::GaConfig config;
  config.population_size = 20;
  config.generations = 12;
  config.seed = 5;
  const ga::IslandPlan plan{3, 4, 2};
  const MlOptimizationResult a = optimize_ml_ga(system, config, 16.0, plan);
  const MlOptimizationResult b = optimize_ml_ga(system, config, 16.0, plan);
  EXPECT_EQ(a.increments, b.increments);
  EXPECT_EQ(a.evaluation.objective, b.evaluation.objective);
  ASSERT_TRUE(a.evaluation.feasible);
  const std::vector<double> zeros(system.genome_length(), 0.0);
  const MlEvaluation corner = evaluate_ml_assignment(
      system, decode_ml_assignment(system, zeros));
  EXPECT_GE(a.evaluation.objective, corner.objective - 1e-9);
}

TEST(OptimizeMl, ZeroElitismThrows) {
  ga::GaConfig config;
  config.elitism = 0;
  EXPECT_THROW((void)optimize_ml_ga(three_level_system(), config),
               std::invalid_argument);
}

TEST(OptimizeMl, DefaultPlanReturnsRunGaWinner) {
  // Reference problem: the same genome-to-ladder decoding optimize_ml_ga
  // searches, fed straight to run_ga. The default plan must return its
  // hall-of-fame genome bit for bit, including on the infeasible system
  // whose objective is 0 everywhere.
  class LadderProblem final : public ga::Problem {
   public:
    LadderProblem(const MlSystem& system, double cap)
        : system_(system), cap_(cap) {}
    [[nodiscard]] std::size_t dimension() const override {
      return system_.genome_length();
    }
    [[nodiscard]] double lower_bound(std::size_t) const override {
      return 0.0;
    }
    [[nodiscard]] double upper_bound(std::size_t) const override {
      return cap_;
    }
    [[nodiscard]] double evaluate(
        std::span<const double> genes) const override {
      return evaluate_ml_assignment(system_,
                                    decode_ml_assignment(system_, genes))
          .objective;
    }

   private:
    const MlSystem& system_;
    double cap_;
  };
  MlSystem overloaded = three_level_system();
  overloaded.tasks[0].wcet_pes = 120.0;  // mode-3 utilization 1.2 > 1
  const std::vector<MlSystem> systems = {three_level_system(),
                                         three_level_system(0.5), overloaded};
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
      ga::GaConfig config;
      config.seed = seed;
      const MlOptimizationResult got = optimize_ml_ga(systems[s], config);
      const ga::GaResult want =
          ga::run_ga(LadderProblem(systems[s], 16.0), config);
      EXPECT_EQ(got.increments, want.best.genes)
          << "system " << s << " seed " << seed;
    }
  }
}

TEST(OptimizeMl, Validation) {
  MlSystem all_level_one;
  all_level_one.levels = 2;
  all_level_one.tasks = {{"a", 1, 100.0, 5.0, 1.0, 20.0}};
  EXPECT_THROW((void)optimize_ml_ga(all_level_one), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::core
