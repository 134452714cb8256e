// Cross-cutting property suites tying the whole stack together:
//  P1 — Theorem 1 end-to-end: for random task sets with lognormal demand,
//       the simulator's measured overrun rate never exceeds the Chebyshev
//       bound at the assigned n.
//  P2 — EDF-VD safety: any task set passing Eq. 8 simulates with zero HC
//       deadline misses under the computed virtual-deadline factor.
//  P3 — Objective consistency: Eq. 13 through the optimizer equals Eq. 13
//       recomputed from the mutated task set.
#include <gtest/gtest.h>

#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "sched/dbf.hpp"
#include "sched/edf_vd.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"
#include "taskgen/uunifast.hpp"

namespace mcs {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, P1_SimulatedOverrunRespectsChebyshevBound) {
  // The bound is distribution-free: verify it in simulation under every
  // execution-time model the generator offers.
  for (const taskgen::EtModel model :
       {taskgen::EtModel::kLogNormal, taskgen::EtModel::kWeibull,
        taskgen::EtModel::kBimodal}) {
    common::Rng rng(GetParam());
    taskgen::GeneratorConfig config;
    config.et_model = model;
    mc::TaskSet tasks = taskgen::generate_hc_only(config, 0.5, rng);
    const std::size_t hc_count = tasks.count(mc::Criticality::kHigh);
    // Random per-task multipliers in [1, 8].
    std::vector<double> n(hc_count);
    for (double& ni : n) ni = rng.uniform(1.0, 8.0);
    const std::vector<double> effective =
        core::apply_chebyshev_assignment(tasks, n);

    sim::SimConfig sim_config;
    sim_config.horizon = 300000.0;
    sim_config.seed = GetParam() * 31 + 1;
    const sim::SimResult result = sim::simulate(tasks, sim_config);

    // Per-job overrun probability bound: the weakest task's bound upper
    // bounds the per-job rate mixture.
    double max_bound = 0.0;
    for (const double ne : effective)
      max_bound = std::max(max_bound, core::task_overrun_bound(ne));
    EXPECT_LE(result.metrics.hc_overrun_rate(), max_bound + 0.05)
        << "et_model=" << static_cast<int>(model);
  }
}

TEST_P(SeededProperty, P2_SchedulableSetsNeverMissHcDeadlines) {
  common::Rng rng(GetParam() + 1000);
  taskgen::GeneratorConfig config;
  mc::TaskSet tasks = taskgen::generate_hc_only(config, 0.6, rng);
  const std::size_t hc_count = tasks.count(mc::Criticality::kHigh);
  const std::vector<double> n(hc_count, 3.0);
  const core::ObjectiveBreakdown breakdown =
      core::evaluate_multipliers(tasks, n);
  if (!breakdown.feasible) GTEST_SKIP() << "HC load infeasible at n=3";
  (void)core::apply_chebyshev_assignment(tasks, n);

  // Fill LC utilization to 90% of the admissible maximum.
  const double lc_target = 0.9 * breakdown.max_u_lc;
  if (lc_target > 0.02) {
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(lc_target / 0.15 + 0.5));
    const auto utils = taskgen::uunifast(count, lc_target, rng);
    for (std::size_t i = 0; i < utils.size(); ++i) {
      const double period = rng.uniform(100.0, 900.0);
      tasks.add(mc::McTask::low("lc" + std::to_string(i),
                                std::max(1e-6, utils[i] * period), period));
    }
  }
  const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
  ASSERT_TRUE(vd.schedulable);

  sim::SimConfig sim_config;
  sim_config.horizon = 200000.0;
  sim_config.x = vd.x;
  sim_config.seed = GetParam() * 17 + 3;
  const sim::SimResult result = sim::simulate(tasks, sim_config);
  EXPECT_EQ(result.metrics.hc_deadline_misses, 0U)
      << "x=" << vd.x << " switches=" << result.metrics.mode_switches;
  EXPECT_GT(result.metrics.hc_jobs_completed, 0U);
}

TEST_P(SeededProperty, P3_OptimizerBreakdownMatchesReevaluation) {
  common::Rng rng(GetParam() + 2000);
  taskgen::GeneratorConfig config;
  config.attach_distributions = false;
  mc::TaskSet tasks = taskgen::generate_hc_only(config, 0.7, rng);
  core::OptimizerConfig opt;
  opt.ga.population_size = 20;
  opt.ga.generations = 15;
  opt.ga.seed = GetParam();
  const core::OptimizationResult best =
      core::optimize_multipliers_ga(tasks, opt);
  (void)core::apply_chebyshev_assignment(tasks, best.n);
  const core::ObjectiveBreakdown recomputed =
      core::evaluate_current_assignment(tasks);
  EXPECT_NEAR(best.breakdown.objective, recomputed.objective, 1e-9);
  EXPECT_NEAR(best.breakdown.p_ms, recomputed.p_ms, 1e-9);
  EXPECT_NEAR(best.breakdown.u_hc_lo, recomputed.u_hc_lo, 1e-9);
}

TEST_P(SeededProperty, P4_DbfAcceptedConstrainedSetsSimulateCleanly) {
  // Constrained-deadline single-mode sets accepted by the processor-demand
  // test must run miss-free in the simulator (which enforces the
  // constrained deadlines).
  common::Rng rng(GetParam() + 3000);
  mc::TaskSet tasks;
  double util = 0.0;
  std::size_t index = 0;
  while (util < 0.7) {
    const double period = rng.uniform(50.0, 400.0);
    const double u = rng.uniform(0.05, 0.2);
    const double wcet = u * period;
    const double deadline = rng.uniform(0.6, 1.0) * period;
    if (wcet > deadline) continue;
    tasks.add(mc::McTask::low(std::string("t").append(std::to_string(index++)),
                              wcet, period)
                  .with_deadline(deadline));
    util += u;
  }
  const sched::DbfResult dbf = sched::edf_dbf_test(tasks, mc::Mode::kLow);
  if (!dbf.schedulable) GTEST_SKIP() << "set not dbf-schedulable";
  sim::SimConfig config;
  config.horizon = 100000.0;
  config.seed = GetParam();
  // LC tasks without distributions run a random fraction of their budget;
  // the worst case (full budget) is what dbf certified, so force it.
  config.exec_fraction_lo = 1.0;
  config.exec_fraction_hi = 1.0;
  const sim::SimResult result = sim::simulate(tasks, config);
  EXPECT_EQ(result.metrics.lc_deadline_misses, 0U);
  EXPECT_EQ(result.metrics.hc_deadline_misses, 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mcs
