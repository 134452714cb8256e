// Extension E5 (beyond the paper): the future-work scheme for L > 2
// criticality levels. Random four-level systems are optimized with the
// GA; the table reports each mode's budget utilization, escalation bound
// and the generalized objective, for both drop-all and degraded
// continuation of lower-criticality tasks.
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/multi_level_sched.hpp"

namespace {

mcs::core::MlSystem random_system(std::size_t levels, std::size_t tasks,
                                  double rho, mcs::common::Rng& rng) {
  mcs::core::MlSystem system;
  system.levels = levels;
  system.rho = rho;
  for (std::size_t i = 0; i < tasks; ++i) {
    mcs::core::MlTask task;
    task.name = std::string("t").append(std::to_string(i));
    task.level = static_cast<std::size_t>(rng.uniform_u64(1, levels));
    task.period = rng.uniform(100.0, 900.0);
    const double util_pes = rng.uniform(0.03, 0.12);
    task.wcet_pes = util_pes * task.period;
    task.acet = task.wcet_pes / rng.uniform(8.0, 64.0);
    task.sigma = task.acet * rng.uniform(0.05, 0.3);
    system.tasks.push_back(task);
  }
  return system;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t systems = 25;
  std::uint64_t tasks = 12;
  std::uint64_t seed = 47;
  mcs::common::Cli cli(
      "Extension E5: GA-optimized WCET ladders for 4-level systems "
      "(the paper's future work)");
  cli.add_u64("systems", &systems, "random systems to average over");
  cli.add_u64("tasks", &tasks, "tasks per system");
  cli.add_u64("seed", &seed, "PRNG seed");
  if (!cli.parse(argc, argv)) return 1;

  mcs::common::Table table({"LC policy", "mode", "mean U(m)",
                            "mean P[escalate]", "mean objective"});
  table.set_title(
      "Extension E5: four-level Chebyshev ladders (GA-optimized)");

  for (const double rho : {0.0, 0.5}) {
    constexpr std::size_t kLevels = 4;
    std::vector<double> mean_util(kLevels, 0.0);
    std::vector<double> mean_esc(kLevels - 1, 0.0);
    double mean_objective = 0.0;
    std::size_t used = 0;

    mcs::common::Rng rng(seed);
    for (std::uint64_t s = 0; s < systems; ++s) {
      mcs::common::Rng sys_rng = rng.split();
      const mcs::core::MlSystem system =
          random_system(kLevels, tasks, rho, sys_rng);
      mcs::ga::GaConfig config;
      config.population_size = 40;
      config.generations = 60;
      config.seed = sys_rng();
      const mcs::core::MlOptimizationResult best =
          mcs::core::optimize_ml_ga(system, config);
      if (!best.evaluation.feasible) continue;
      ++used;
      for (std::size_t m = 0; m < kLevels; ++m)
        mean_util[m] += best.evaluation.mode_utilization[m];
      for (std::size_t m = 0; m + 1 < kLevels; ++m)
        mean_esc[m] += best.evaluation.escalation_probability[m];
      mean_objective += best.evaluation.objective;
    }
    if (used == 0) continue;
    for (std::size_t m = 0; m < kLevels; ++m) {
      table.add_row(
          {rho == 0.0 ? "drop-all" : "degrade-50%",
           "mode " + std::to_string(m + 1),
           mcs::common::format_percent(mean_util[m] /
                                       static_cast<double>(used)),
           m + 1 < kLevels
               ? mcs::common::format_percent(mean_esc[m] /
                                             static_cast<double>(used))
               : std::string("(top)"),
           m == 0 ? mcs::common::format_double(
                        mean_objective / static_cast<double>(used), 4)
                  : std::string("")});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nReading: each successive mode trades capacity for a lower "
            "escalation probability; degraded continuation raises the "
            "higher modes' utilization but preserves lower-criticality "
            "service — the dual-criticality paper is the L = 2 row of "
            "this picture.");
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
