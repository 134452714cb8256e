// Island-GA + genome-memoization benchmark on a large (~100 HC task)
// Eq. 13 multiplier-optimization instance, in three rows:
//
//  1. "monolithic"  — the legacy ga::run_ga path (no memo cache).
//  2. "memoized"    — run_island_ga with islands=1, interval=0: the
//     evolution path is bit-identical to row 1 (pinned by the
//     test_ga_islands oracle), but the genome->objective cache skips
//     re-evaluating duplicate genomes, so every saved fitness call is
//     pure speedup at identical output. The headline `speedup` compares
//     these two rows; the run FAILS (exit 1) if the winning genomes or
//     objective diverge.
//  3. "islands"     — the full island model (default 4 islands, ring
//     migration every 5 generations): more total search at the same
//     per-island budget, reported for objective/hit-rate context rather
//     than as a like-for-like timing row.
//
// Two objective modes pick the fitness-call cost regime:
//   --objective=demand   (default) — Eq. 13 gated by the deadline-
//     tightening demand grid search (sched::edf_vd_demand_search) over
//     the candidate assignment: the search dominates each fitness call,
//     which is the regime memoization targets.
//   --objective=analytic — the bare Eq. 13 closed form (~3 us/call):
//     hashing and comparing 100-gene keys costs a little more than the
//     saved calls, so this mode documents the break-even honestly rather
//     than hiding it.
//
// --json writes the rows plus the headline speedup/hit-rate as a CI
// artifact (see .github/workflows/ci.yml).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "ga/islands.hpp"
#include "mc/taskset.hpp"
#include "sched/demand_vd.hpp"
#include "taskgen/generator.hpp"

namespace {

/// Eq. 13 objective gated by the demand grid search: a candidate scores
/// its analytic objective only if the assigned task set also passes
/// sched::edf_vd_demand_search (the PR-8 demand backend without the
/// implicit-deadline Eq. 8 shortcut). Each call copies the task set and
/// scans the demand grid, so fitness dominates the GA bookkeeping.
class DemandGatedProblem final : public mcs::ga::Problem {
 public:
  DemandGatedProblem(const mcs::mc::TaskSet& tasks,
                     const mcs::ga::Problem& bounds)
      : tasks_(tasks), bounds_(bounds) {}

  [[nodiscard]] std::size_t dimension() const override {
    return bounds_.dimension();
  }
  [[nodiscard]] double lower_bound(std::size_t i) const override {
    return bounds_.lower_bound(i);
  }
  [[nodiscard]] double upper_bound(std::size_t i) const override {
    return bounds_.upper_bound(i);
  }
  [[nodiscard]] double evaluate(std::span<const double> genes) const override {
    const mcs::core::ObjectiveBreakdown breakdown =
        mcs::core::evaluate_multipliers(tasks_, genes);
    if (!breakdown.feasible) return 0.0;
    mcs::mc::TaskSet assigned = tasks_;
    mcs::core::apply_chebyshev_assignment(assigned, genes);
    return mcs::sched::edf_vd_demand_search(assigned).schedulable
               ? breakdown.objective
               : 0.0;
  }

 private:
  const mcs::mc::TaskSet& tasks_;
  const mcs::ga::Problem& bounds_;
};

using Clock = std::chrono::steady_clock;

struct RunRow {
  std::string mode;
  double wall_ms = 0.0;
  std::size_t evaluations = 0;  ///< actual Problem::evaluate calls
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double objective = 0.0;
  std::vector<double> genes;
};

double hit_rate(const RunRow& r) {
  const std::size_t lookups = r.cache_hits + r.cache_misses;
  return lookups > 0 ? static_cast<double>(r.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0;
}

std::string format_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string render_json(const std::vector<RunRow>& rows, double speedup,
                        bool matched) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"perf_ga_islands\",\n"
      << "  \"memo_speedup\": " << speedup << ",\n"
      << "  \"memo_matches_monolithic\": " << (matched ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"wall_ms\": " << r.wall_ms
        << ", \"evaluations\": " << r.evaluations
        << ", \"cache_hits\": " << r.cache_hits
        << ", \"cache_misses\": " << r.cache_misses
        << ", \"hit_rate\": " << hit_rate(r)
        << ", \"objective\": " << r.objective << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 11;
  std::uint64_t population = 48;
  std::uint64_t generations = 60;
  std::uint64_t islands = 4;
  std::uint64_t migration_interval = 5;
  std::uint64_t migrants = 2;
  std::string objective_mode = "demand";
  std::string json_path;
  mcs::common::Cli cli(
      "Island-GA memoization benchmark: legacy run_ga vs. the memoized "
      "island engine on a ~100-HC-task multiplier optimization");
  cli.add_u64("seed", &seed, "PRNG seed (task set and GA)");
  cli.add_u64("population", &population, "GA population size (per island)");
  cli.add_u64("generations", &generations, "GA generations");
  cli.add_u64("islands", &islands, "island count for the full-model row");
  cli.add_u64("migration-interval", &migration_interval,
              "generations between ring migrations in the full-model row");
  cli.add_u64("migrants", &migrants, "top-K exchanged per migration");
  cli.add_string("objective", &objective_mode,
                 "fitness cost regime: demand (Eq. 13 gated by the demand "
                 "grid search) or analytic (bare Eq. 13)");
  cli.add_string("json", &json_path,
                 "also write the results as JSON to this path (CI artifact)");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;

  // ~100 HC tasks: mean per-task HI utilization 0.008 at total 0.8.
  mcs::taskgen::GeneratorConfig gen;
  gen.task_util_min = 0.004;
  gen.task_util_max = 0.012;
  mcs::common::Rng rng(seed);
  const mcs::mc::TaskSet tasks =
      mcs::taskgen::generate_hc_only(gen, 0.8, rng);
  std::printf("task set: %zu HC tasks (u_hc_hi = 0.8), genome dimension %zu\n",
              tasks.size(), tasks.size());

  mcs::ga::GaConfig ga;
  ga.population_size = static_cast<std::size_t>(population);
  ga.generations = static_cast<std::size_t>(generations);
  ga.seed = seed;
  const auto multiplier_problem = mcs::core::make_multiplier_problem(tasks);
  if (objective_mode != "demand" && objective_mode != "analytic") {
    std::fprintf(stderr, "perf_ga_islands: unknown --objective '%s'\n",
                 objective_mode.c_str());
    return 1;
  }
  const DemandGatedProblem demand_problem(tasks, *multiplier_problem);
  const mcs::ga::Problem& problem =
      objective_mode == "demand"
          ? static_cast<const mcs::ga::Problem&>(demand_problem)
          : *multiplier_problem;
  std::printf("objective mode: %s\n", objective_mode.c_str());

  std::vector<RunRow> rows;

  {  // Row 1: legacy monolithic run_ga (no memo).
    const Clock::time_point t0 = Clock::now();
    const mcs::ga::GaResult mono = mcs::ga::run_ga(problem, ga);
    RunRow row;
    row.mode = "monolithic";
    row.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    row.evaluations = mono.evaluations;
    row.cache_misses = mono.evaluations;
    row.objective = mono.best.fitness;
    row.genes = mono.best.genes;
    rows.push_back(std::move(row));
  }

  const auto island_row = [&](const char* mode, const mcs::ga::IslandPlan&
                                                    plan) {
    mcs::ga::IslandGaConfig config;
    config.ga = ga;
    config.plan = plan;
    const Clock::time_point t0 = Clock::now();
    const mcs::ga::IslandGaResult result =
        mcs::ga::run_island_ga(problem, config);
    RunRow row;
    row.mode = mode;
    row.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    row.evaluations = result.stats.evaluations;
    row.cache_hits = result.stats.cache_hits;
    row.cache_misses = result.stats.cache_misses;
    const mcs::ga::Individual best =
        mcs::ga::best_of_state(result.final_state);
    row.objective = best.fitness;
    row.genes = best.genes;
    return row;
  };

  // Row 2: same evolution path, memoized (islands=1, no migration).
  rows.push_back(island_row("memoized", {1, 0, 0}));
  // Row 3: the full island model at the configured plan.
  rows.push_back(island_row(
      "islands", {static_cast<std::size_t>(islands),
                  static_cast<std::size_t>(migration_interval),
                  static_cast<std::size_t>(migrants)}));

  const RunRow& mono = rows[0];
  const RunRow& memo = rows[1];
  const bool matched =
      memo.genes == mono.genes && memo.objective == mono.objective;
  const double speedup =
      memo.wall_ms > 0.0 ? mono.wall_ms / memo.wall_ms : 0.0;

  mcs::common::Table table({"mode", "wall (ms)", "fitness calls",
                            "memo hits", "memo misses", "hit rate",
                            "objective"});
  table.set_title("island-GA memoization benchmark (" +
                  std::to_string(tasks.size()) + " HC tasks, population " +
                  std::to_string(population) + ", " +
                  std::to_string(generations) + " generations)");
  for (const RunRow& r : rows)
    table.add_row({r.mode, format_fixed(r.wall_ms, 1),
                   std::to_string(r.evaluations),
                   std::to_string(r.cache_hits),
                   std::to_string(r.cache_misses),
                   format_fixed(100.0 * hit_rate(r), 1) + "%",
                   format_fixed(r.objective, 6)});
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nmemoized vs monolithic: %.2fx wall-clock, %zu of %zu fitness "
      "calls skipped (%s winner)\n",
      speedup, mono.evaluations - memo.evaluations, mono.evaluations,
      matched ? "identical" : "DIVERGENT");

  if (!json_path.empty()) {
    std::ofstream json_out(json_path);
    json_out << render_json(rows, speedup, matched);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  if (!matched) {
    std::fprintf(stderr,
                 "FAIL: memoized single-island run diverged from run_ga\n");
    return 1;
  }
  return 0;
}
