// mcs-cli — command-line front end to the library.
//
//   mcs-cli generate --u-bound=0.9 --seed=1 > tasks.mcs
//   mcs-cli analyze  tasks.mcs
//   mcs-cli optimize tasks.mcs --seed=7 > assigned.mcs
//   mcs-cli simulate assigned.mcs --horizon=100000 --policy=degrade
//
// Task sets travel in the portable text format of mc/io.hpp, so the whole
// design flow (generate -> optimize -> analyze -> simulate) can be
// scripted through pipes and files.
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <sys/socket.h>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/cli.hpp"
#include "common/csv_merge.hpp"
#include "common/executor.hpp"
#include "common/net.hpp"
#include "core/admission.hpp"
#include "core/serve.hpp"
#include "core/serve_net.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/optimizer.hpp"
#include "core/lint.hpp"
#include "core/report.hpp"
#include "exp/campaign.hpp"
#include "exp/fig6.hpp"
#include "exp/shootout.hpp"
#include "mc/io.hpp"
#include "sched/edf_vd.hpp"
#include "sched/policies.hpp"
#include "stats/concentration.hpp"
#include "sched/partition.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"
#include "wcet/analyzer.hpp"
#include "wcet/dot.hpp"

namespace {

using namespace mcs;

int usage() {
  std::fputs(
      "usage: mcs-cli <command> [file] [options]\n"
      "commands:\n"
      "  generate            emit a random task set (see --help)\n"
      "  analyze  <file>     print the design report for a task set\n"
      "  optimize <file>     GA-assign Chebyshev C^LO values; emits the\n"
      "                      assigned task set on stdout\n"
      "  simulate <file>     run the EDF-VD discrete-event simulator\n"
      "  partition <file>    bin-pack the task set onto m cores\n"
      "  sweep               acceptance-ratio sweep across U_bound\n"
      "                      (shardable: --shard i/N + mcs_merge)\n"
      "  campaign            simulation campaign across U_bound with\n"
      "                      streamed per-point metric aggregation\n"
      "                      (shardable: --shard i/N + mcs_merge)\n"
      "  serve               open-system admission-control service with\n"
      "                      incremental EDF-VD/DBF admission (line\n"
      "                      protocol on stdin, --script=FILE, or TCP via\n"
      "                      --listen; --cores=N partitions admission)\n"
      "  client              send a request script to a --listen server\n"
      "                      and print the replies (loopback harness)\n"
      "  wcet <kernel>       measure + statically analyze a benchmark\n"
      "                      kernel (qsort-100, corner, edge, smooth,\n"
      "                      epic, fft-256, matmul-24, ...)\n"
      "Every command accepts --help for its options.\n",
      stderr);
  return 2;
}

mc::TaskSet load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return mc::load_taskset(in);
}

int cmd_generate(int argc, const char* const* argv) {
  double u_bound = 0.9;
  std::uint64_t seed = 1;
  std::string et_model = "lognormal";
  common::Cli cli("mcs-cli generate: emit a random dual-criticality task "
                  "set in the portable format");
  cli.add_double("u-bound", &u_bound, "target bound utilization");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_string("et-model", &et_model,
                 "execution-time model: lognormal | weibull | bimodal");
  if (!cli.parse(argc, argv)) return 1;
  common::Rng rng(seed);
  taskgen::GeneratorConfig config;
  if (et_model == "weibull") config.et_model = taskgen::EtModel::kWeibull;
  else if (et_model == "bimodal")
    config.et_model = taskgen::EtModel::kBimodal;
  else if (et_model != "lognormal") {
    std::fprintf(stderr, "unknown --et-model '%s'\n", et_model.c_str());
    return 1;
  }
  const mc::TaskSet tasks = taskgen::generate_mixed(config, u_bound, rng);
  mc::save_taskset(std::cout, tasks);
  return 0;
}

int cmd_wcet(const std::string& kernel_name, int argc,
             const char* const* argv) {
  std::uint64_t samples = 2000;
  std::uint64_t seed = 1;
  bool dot = false;
  std::string bound;
  double target_p = 0.1;
  common::Cli cli("mcs-cli wcet: measurement campaign + static analysis "
                  "for one benchmark kernel");
  cli.add_u64("samples", &samples, "randomized executions");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_flag("dot", &dot, "emit the worst-case CFG as graphviz dot");
  cli.add_string("bound", &bound,
                 "also derive C^LO from a concentration bound at "
                 "--target-p: cantelli | chebyshev2 | vp | gauss");
  cli.add_double("target-p", &target_p,
                 "exceedance target for --bound");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;

  for (const apps::KernelPtr& kernel : apps::all_kernels()) {
    if (kernel->name() != kernel_name) continue;
    if (dot) {
      const wcet::ControlFlowGraph cfg =
          wcet::lower_program(*kernel->worst_case_program());
      const wcet::CostModel model = wcet::CostModel::worst_case();
      std::fputs(wcet::to_dot(cfg, &model).c_str(), stdout);
      return 0;
    }
    const apps::ExecutionProfile profile =
        apps::measure_kernel(*kernel, samples, seed);
    std::printf("kernel        : %s\n", profile.name.c_str());
    std::printf("samples       : %zu\n", profile.samples.size());
    std::printf("ACET          : %.4g cycles\n", profile.acet);
    std::printf("sigma         : %.4g cycles\n", profile.sigma);
    std::printf("observed max  : %.4g cycles\n", profile.observed_max);
    std::printf("WCET^pes      : %.4g cycles (static)\n",
                static_cast<double>(profile.wcet_pes));
    std::printf("pessimism gap : %.2fx\n", profile.pessimism_ratio());
    std::printf("C^LO at n=3   : %.4g cycles (Chebyshev bound 10%%, "
                "measured overrun %.2f%%)\n",
                profile.acet + 3.0 * profile.sigma,
                100.0 * profile.overrun_rate(profile.acet +
                                             3.0 * profile.sigma));
    if (!bound.empty()) {
      stats::BoundKind kind;
      try {
        kind = stats::parse_bound_kind(bound);
        if (!(target_p > 0.0) || target_p >= 1.0)
          throw std::invalid_argument("--target-p must be in (0, 1)");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "wcet: %s\n", e.what());
        return 1;
      }
      const stats::UnimodalityReport uni =
          stats::unimodality_check(profile.samples);
      // VP/Gauss only under a certified unimodal histogram; otherwise the
      // distribution-free Cantelli multiplier for the same target (the
      // ConcentrationBoundPolicy fallback).
      const bool premised = kind == stats::BoundKind::kCantelli ||
                            kind == stats::BoundKind::kChebyshev ||
                            uni.unimodal;
      const stats::BoundKind effective =
          premised ? kind : stats::BoundKind::kCantelli;
      const double n = stats::concentration_n_for_target(effective, target_p);
      const double level = profile.acet + n * profile.sigma;
      const std::string effective_name{stats::bound_name(effective)};
      std::printf("C^LO %s(p=%g): %.4g cycles (n=%.3f%s, measured overrun "
                  "%.2f%%, histogram %s)\n",
                  effective_name.c_str(), target_p, level, n,
                  premised ? "" : ", Cantelli fallback",
                  100.0 * profile.overrun_rate(level),
                  uni.unimodal ? "unimodal" : "multimodal");
    }
    return 0;
  }
  std::fprintf(stderr, "unknown kernel '%s'\n", kernel_name.c_str());
  return 1;
}

int cmd_sweep(int argc, const char* const* argv) {
  double u_min = 0.5;
  double u_max = 1.4;
  std::uint64_t points = 10;
  std::uint64_t tasksets = 300;
  std::uint64_t seed = 11;
  bool csv_only = false;
  std::string out_path;
  std::string policy_specs;
  std::string admission = "utilization";
  double target_p = 0.1;
  common::Shard shard;
  common::Cli cli(
      "mcs-cli sweep: acceptance ratio of all four approaches across a\n"
      "U_bound range (the Fig. 6 experiment). With --policy=SPECS the\n"
      "sweep instead scores that C^LO policy roster under --admission.\n"
      "With --shard i/N only the shard's slice of the points is evaluated\n"
      "and a partial CSV is emitted; recombine the shards with mcs_merge.");
  cli.add_double("u-min", &u_min, "first utilization bound");
  cli.add_double("u-max", &u_max, "last utilization bound");
  cli.add_u64("points", &points, "number of U_bound points");
  cli.add_u64("tasksets", &tasksets, "task sets per point");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_string("policy", &policy_specs,
                 "comma-separated C^LO policies for the shoot-out mode "
                 "(vp_n_sigma, gauss_n_sigma, cantelli_n_sigma, "
                 "median_k_mad, iqr_whisker, ...)");
  cli.add_string("admission", &admission,
                 "shoot-out backend: utilization (Eq. 8) or demand "
                 "(deadline-tightening search)");
  cli.add_double("target-p", &target_p,
                 "exceedance target of the concentration-bound policies");
  cli.add_flag("csv", &csv_only,
               "emit only the CSV block (implied by --shard)");
  cli.add_shard(&shard);
  cli.add_output(&out_path);
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (points == 0 || u_max < u_min) {
    std::fputs("sweep: need points >= 1 and u-max >= u-min\n", stderr);
    return 1;
  }
  if (shard.active() || !out_path.empty()) csv_only = true;

  std::vector<double> u_values;
  u_values.reserve(points);
  for (std::uint64_t p = 0; p < points; ++p)
    u_values.push_back(points == 1 ? u_min
                                   : u_min + (u_max - u_min) *
                                                 static_cast<double>(p) /
                                                 static_cast<double>(points - 1));
  if (!policy_specs.empty()) {
    sched::PolicyFactoryOptions policy_options;
    policy_options.target_p = target_p;
    const auto policies =
        sched::make_policy_list(policy_specs, policy_options);
    const auto result = exp::run_shootout_acceptance(
        policies, core::parse_admission_backend(admission), u_values,
        tasksets, seed, common::Executor(shard));
    const common::Table table = exp::render_shootout_acceptance(result);
    if (csv_only) return common::emit_csv(out_path, table.render_csv());
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nCSV:");
    std::fputs(table.render_csv().c_str(), stdout);
    return 0;
  }

  const auto sweep_points =
      exp::run_fig6(u_values, tasksets, seed, common::Executor(shard));
  const common::Table table = exp::render_fig6(sweep_points);
  if (csv_only) return common::emit_csv(out_path, table.render_csv());
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}

int cmd_campaign(int argc, const char* const* argv) {
  double u_min = 0.5;
  double u_max = 1.4;
  std::uint64_t points = 10;
  std::uint64_t sets = 1000;
  std::uint64_t seed = 991;
  double n = 3.0;
  double horizon = 50000.0;
  double jitter = 0.0;
  std::string policy = "drop";
  bool csv_only = false;
  std::string out_path;
  common::Shard shard;
  common::Cli cli(
      "mcs-cli campaign: simulate many random Chebyshev-assigned task sets\n"
      "per U_bound point and stream every run into one per-point metrics\n"
      "accumulator, so the output is O(points) however many sets are\n"
      "simulated. With --shard i/N only the shard's slice of the points is\n"
      "evaluated and a partial CSV is emitted; recombine with mcs_merge.");
  cli.add_double("u-min", &u_min, "first utilization bound");
  cli.add_double("u-max", &u_max, "last utilization bound");
  cli.add_u64("points", &points, "number of U_bound points");
  cli.add_u64("sets", &sets, "task sets simulated per point");
  cli.add_u64("seed", &seed, "PRNG stream key");
  cli.add_double("n", &n, "uniform Chebyshev multiplier for C^LO");
  cli.add_double("horizon", &horizon, "simulated time per set (ms)");
  cli.add_double("jitter", &jitter,
                 "sporadic release jitter as a fraction of the period");
  cli.add_string("policy", &policy, "LC policy in HI mode: drop | degrade");
  cli.add_flag("csv", &csv_only,
               "emit only the CSV block (implied by --shard)");
  cli.add_shard(&shard);
  cli.add_output(&out_path);
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (points == 0 || u_max < u_min) {
    std::fputs("campaign: need points >= 1 and u-max >= u-min\n", stderr);
    return 1;
  }
  if (shard.active() || !out_path.empty()) csv_only = true;

  exp::SimCampaignConfig cfg;
  cfg.u_values.reserve(points);
  for (std::uint64_t p = 0; p < points; ++p)
    cfg.u_values.push_back(
        points == 1 ? u_min
                    : u_min + (u_max - u_min) * static_cast<double>(p) /
                                  static_cast<double>(points - 1));
  cfg.sets_per_point = sets;
  cfg.seed = seed;
  cfg.n = n;
  cfg.sim.horizon = horizon;
  cfg.sim.release_jitter = jitter;
  if (policy == "degrade") cfg.sim.lc_policy = sim::LcPolicy::kDegradeHalf;
  else if (policy != "drop") {
    std::fprintf(stderr, "unknown --policy '%s'\n", policy.c_str());
    return 1;
  }
  const auto cells = exp::run_sim_campaign(cfg, common::Executor(shard));
  const common::Table table = exp::render_sim_campaign(cells);
  if (csv_only) return common::emit_csv(out_path, table.render_csv());
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}

int cmd_analyze(const std::string& path, int argc, const char* const* argv) {
  common::Cli cli("mcs-cli analyze: lint the task set and print the design "
                  "report");
  if (!cli.parse(argc, argv)) return 1;
  const mc::TaskSet tasks = load_file(path);
  const auto findings = core::lint_taskset(tasks);
  if (!findings.empty()) {
    std::fputs(core::render_lint(findings).c_str(), stderr);
    for (const core::LintFinding& f : findings) {
      if (f.severity == core::LintSeverity::kError) {
        std::fputs("lint errors present — report skipped\n", stderr);
        return 1;
      }
    }
  }
  std::fputs(core::render_design_report(tasks).c_str(), stdout);
  return 0;
}

/// Renders islands [begin, end) of `state` as the optimize state CSV:
/// island,member,fitness,g0..g{D-1}. Doubles travel as hexfloats (%a), so
/// a parse -> render round trip is bit-exact — the property the sharded
/// epoch dataflow's byte-identity rests on.
std::string render_island_state(const ga::IslandState& state,
                                std::size_t begin, std::size_t end,
                                std::size_t dim) {
  std::string out = "island,member,fitness";
  for (std::size_t g = 0; g < dim; ++g) out += ",g" + std::to_string(g);
  out += "\n";
  char buf[64];
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < state[i].size(); ++j) {
      const ga::Individual& ind = state[i][j];
      out += std::to_string(i) + "," + std::to_string(j);
      std::snprintf(buf, sizeof buf, ",%a", ind.fitness);
      out += buf;
      for (const double gene : ind.genes) {
        std::snprintf(buf, sizeof buf, ",%a", gene);
        out += buf;
      }
      out += "\n";
    }
  }
  return out;
}

double parse_state_double(const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0')
    throw std::runtime_error("optimize: bad numeric cell '" + cell +
                             "' in state CSV");
  return v;
}

/// Parses a (merged) state CSV back into a full island state. Every
/// island in [0, islands) must carry exactly `population` members with
/// `dim` genes; rows may arrive in any order (mcs_merge keeps shard
/// slices contiguous, but the parser does not rely on it).
ga::IslandState parse_island_state(const std::string& csv_path,
                                   std::size_t islands, std::size_t population,
                                   std::size_t dim) {
  const common::CsvFile csv = common::read_csv_file(csv_path);
  if (csv.header.size() != 3 + dim)
    throw std::runtime_error("optimize: state CSV has " +
                             std::to_string(csv.header.size()) +
                             " columns, expected " + std::to_string(3 + dim));
  ga::IslandState state(islands);
  for (auto& population_rows : state)
    population_rows.resize(population);
  std::vector<std::vector<bool>> seen(islands,
                                      std::vector<bool>(population, false));
  for (const std::vector<std::string>& row : csv.rows) {
    if (row.size() != 3 + dim)
      throw std::runtime_error("optimize: ragged state CSV row");
    const std::size_t island = std::stoul(row[0]);
    const std::size_t member = std::stoul(row[1]);
    if (island >= islands || member >= population)
      throw std::runtime_error("optimize: state row " + row[0] + "," +
                               row[1] + " out of range");
    if (seen[island][member])
      throw std::runtime_error("optimize: duplicate state row " + row[0] +
                               "," + row[1]);
    seen[island][member] = true;
    ga::Individual& ind = state[island][member];
    ind.fitness = parse_state_double(row[2]);
    ind.genes.resize(dim);
    for (std::size_t g = 0; g < dim; ++g)
      ind.genes[g] = parse_state_double(row[3 + g]);
    ind.evaluated = true;
  }
  for (std::size_t i = 0; i < islands; ++i)
    for (std::size_t j = 0; j < population; ++j)
      if (!seen[i][j])
        throw std::runtime_error("optimize: state CSV is missing island " +
                                 std::to_string(i) + " member " +
                                 std::to_string(j));
  return state;
}

int emit_assigned_taskset(mc::TaskSet tasks, const std::vector<double>& n,
                          const ga::IslandStats* stats) {
  const core::ObjectiveBreakdown breakdown =
      core::evaluate_multipliers(tasks, n);
  (void)core::apply_chebyshev_assignment(tasks, n);
  mc::save_taskset(std::cout, tasks);
  std::fprintf(stderr,
               "objective (Eq. 13) = %.4f, P_sys^MS <= %.2f%%, "
               "max(U_LC^LO) = %.2f%%%s\n",
               breakdown.objective, 100.0 * breakdown.p_ms,
               100.0 * breakdown.max_u_lc,
               breakdown.feasible ? "" : " [HC load infeasible]");
  if (stats != nullptr)
    std::fprintf(stderr,
                 "search: %zu evaluations, %zu memo hits, %zu misses\n",
                 stats->evaluations, stats->cache_hits, stats->cache_misses);
  return breakdown.feasible ? 0 : 1;
}

int cmd_optimize(const std::string& path, int argc,
                 const char* const* argv) {
  std::uint64_t seed = 1;
  std::uint64_t population = 60;
  std::uint64_t generations = 80;
  double n_cap = 64.0;
  std::uint64_t islands = 1;
  std::uint64_t migration_interval = 0;
  std::uint64_t migrants = 2;
  std::uint64_t epoch = 0;
  std::string state_in;
  std::string out_path;
  bool state_csv = false;
  bool finalize = false;
  common::Shard shard;
  common::Cli cli("mcs-cli optimize: GA-assign C^LO = ACET + n_i * sigma "
                  "per HC task; the assigned set goes to stdout, the "
                  "summary to stderr. With --islands the search runs the "
                  "island-model GA (ring migration every "
                  "--migration-interval generations). The epoch dataflow "
                  "(--state-csv/--epoch/--state-in/--finalize, shardable "
                  "with --shard + mcs_merge) reproduces the in-process "
                  "run byte for byte across any shard count");
  cli.add_u64("seed", &seed, "GA seed");
  cli.add_u64("population", &population, "GA population size (per island)");
  cli.add_u64("generations", &generations, "GA generations");
  cli.add_double("n-cap", &n_cap, "upper bound of the multiplier search");
  cli.add_u64("islands", &islands, "island count (1 = monolithic GA)");
  cli.add_u64("migration-interval", &migration_interval,
              "generations between ring migrations (0 = never; also the "
              "epoch length of the sharded dataflow)");
  cli.add_u64("migrants", &migrants,
              "top-K individuals exchanged at each migration");
  cli.add_flag("state-csv", &state_csv,
               "run ONE epoch (--epoch) for the owned islands and emit "
               "the state CSV instead of a task set");
  cli.add_u64("epoch", &epoch, "epoch to run with --state-csv (0-based; "
              "epochs = ceil(generations / migration-interval))");
  cli.add_string("state-in", &state_in,
                 "full previous-epoch state CSV (required for --epoch > 0 "
                 "and --finalize)");
  cli.add_flag("finalize", &finalize,
               "pick the best individual of --state-in and emit the "
               "assigned task set");
  cli.add_shard(&shard);
  cli.add_output(&out_path);
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (islands == 0) {
    std::fprintf(stderr, "optimize: --islands must be >= 1\n");
    return 1;
  }

  mc::TaskSet tasks = load_file(path);

  ga::IslandGaConfig island_config;
  island_config.ga.seed = seed;
  island_config.ga.population_size = population;
  island_config.ga.generations = generations;
  island_config.plan.islands = islands;
  island_config.plan.migration_interval = migration_interval;
  island_config.plan.migrants = migrants;

  if (finalize) {
    if (state_in.empty()) {
      std::fprintf(stderr, "optimize: --finalize requires --state-in\n");
      return 1;
    }
    const auto problem = core::make_multiplier_problem(tasks, n_cap);
    const ga::IslandState state = parse_island_state(
        state_in, islands, population, problem->dimension());
    const ga::Individual best = ga::best_of_state(state);
    return emit_assigned_taskset(std::move(tasks), best.genes, nullptr);
  }

  if (state_csv) {
    if ((epoch > 0) != !state_in.empty()) {
      std::fprintf(stderr, "optimize: --state-in is required exactly for "
                           "--epoch > 0\n");
      return 1;
    }
    const auto problem = core::make_multiplier_problem(tasks, n_cap);
    const std::size_t dim = problem->dimension();
    ga::IslandState state;
    if (epoch > 0)
      state = parse_island_state(state_in, islands, population, dim);
    const auto [begin, end] = shard.slice(islands);
    ga::GenomeFitCache cache;
    ga::IslandStats stats;
    if (begin < end)
      ga::evolve_islands_epoch(*problem, island_config, epoch, state, begin,
                               end, cache, stats, nullptr, nullptr);
    return common::emit_csv(out_path,
                            render_island_state(state, begin, end, dim));
  }

  if (shard.active()) {
    std::fprintf(stderr,
                 "optimize: --shard requires --state-csv (one epoch per "
                 "invocation; see --help)\n");
    return 1;
  }

  core::OptimizerConfig config;
  config.ga = island_config.ga;
  config.n_cap = n_cap;
  config.islands = island_config.plan;
  const core::OptimizationResult best =
      core::optimize_multipliers_ga(tasks, config);
  return emit_assigned_taskset(std::move(tasks), best.n, &best.search);
}

int cmd_simulate(const std::string& path, int argc,
                 const char* const* argv) {
  double horizon = 100000.0;
  std::uint64_t seed = 1;
  std::string policy = "drop";
  std::string trace_bin;
  std::string trace_txt;
  std::uint64_t trace_capacity = 0;
  common::Cli cli("mcs-cli simulate: run the task set in the EDF-VD "
                  "discrete-event simulator");
  cli.add_double("horizon", &horizon, "simulated time (ms)");
  cli.add_u64("seed", &seed, "simulation seed");
  cli.add_string("policy", &policy, "LC policy in HI mode: drop | degrade");
  cli.add_string("trace-bin", &trace_bin,
                 "stream the full event log to this file in the compact "
                 "binary format (decode with mcs-trace)");
  cli.add_string("trace-txt", &trace_txt,
                 "write the in-memory trace rendering to this file "
                 "(bounded by --trace-capacity)");
  cli.add_u64("trace-capacity", &trace_capacity,
              "in-memory trace bound in events (0 = off; implied "
              "by --trace-txt)");
  if (!cli.parse(argc, argv)) return 1;

  const mc::TaskSet tasks = load_file(path);
  const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
  if (!vd.schedulable)
    std::fputs("warning: EDF-VD rejects this set; simulating anyway\n",
               stderr);
  sim::SimConfig config;
  config.horizon = horizon;
  config.x = vd.schedulable ? vd.x : 1.0;
  config.seed = seed;
  if (policy == "degrade") config.lc_policy = sim::LcPolicy::kDegradeHalf;
  else if (policy != "drop") {
    std::fprintf(stderr, "unknown --policy '%s'\n", policy.c_str());
    return 1;
  }
  config.response_reservoir = 512;
  config.trace_binary_path = trace_bin;
  config.trace_capacity = trace_capacity;
  if (!trace_txt.empty() && config.trace_capacity == 0)
    config.trace_capacity = std::size_t{1} << 20;
  const sim::SimResult result = sim::simulate(tasks, config);
  if (!trace_txt.empty()) {
    std::ofstream out(trace_txt);
    out << result.trace.render();
    if (!out) {
      std::fprintf(stderr, "simulate: cannot write %s\n", trace_txt.c_str());
      return 1;
    }
  }
  const sim::SimMetrics& m = result.metrics;
  std::printf("horizon            : %.0f ms (x = %.3f, policy = %s)\n",
              horizon, config.x, policy.c_str());
  std::printf("HC jobs            : %llu released, %llu completed, "
              "%llu overruns, %llu misses\n",
              static_cast<unsigned long long>(m.hc_jobs_released),
              static_cast<unsigned long long>(m.hc_jobs_completed),
              static_cast<unsigned long long>(m.hc_jobs_overrun),
              static_cast<unsigned long long>(m.hc_deadline_misses));
  std::printf("LC jobs            : %llu released, %llu completed, "
              "%llu dropped (%.2f%%)\n",
              static_cast<unsigned long long>(m.lc_jobs_released),
              static_cast<unsigned long long>(m.lc_jobs_completed),
              static_cast<unsigned long long>(m.lc_jobs_dropped),
              100.0 * m.lc_drop_rate());
  std::printf("mode switches      : %llu (HI-mode time %.3f%%)\n",
              static_cast<unsigned long long>(m.mode_switches),
              100.0 * m.hi_mode_fraction());
  std::printf("utilization        : %.2f%%\n",
              100.0 * m.observed_utilization());
  std::puts("per-task response times (mean / p95 / p99 / max, ms):");
  // A task that never completed a job has no response distribution; its
  // quantiles are NaN (reservoir.hpp) and render as "-", not 0.000.
  const auto fmt = [](double v) {
    char buf[16];
    if (std::isnan(v)) std::snprintf(buf, sizeof buf, "%8s", "-");
    else std::snprintf(buf, sizeof buf, "%8.3f", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    std::printf("  %-16s %s / %s / %s / %s\n", tasks[i].name.c_str(),
                fmt(m.per_task[i].mean_response()).c_str(),
                fmt(m.per_task[i].p95_response).c_str(),
                fmt(m.per_task[i].p99_response).c_str(),
                fmt(m.per_task[i].max_response).c_str());
  }
  return m.hc_deadline_misses == 0 ? 0 : 1;
}

bool parse_placement(const std::string& name,
                     sched::PartitionHeuristic* out) {
  if (name == "first-fit") *out = sched::PartitionHeuristic::kFirstFit;
  else if (name == "best-fit") *out = sched::PartitionHeuristic::kBestFit;
  else if (name == "worst-fit") *out = sched::PartitionHeuristic::kWorstFit;
  else return false;
  return true;
}

// The network serve loop parks the server here so the SIGINT/SIGTERM
// handler can request a graceful stop (LineServer::stop is
// async-signal-safe: an atomic store plus a self-pipe write). Atomic
// because a plain pointer may not be read from a signal handler.
std::atomic<common::net::LineServer*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int) {
  common::net::LineServer* const server =
      g_serve_server.load(std::memory_order_acquire);
  if (server) server->stop();
}

int cmd_serve(int argc, const char* const* argv) {
  std::string script;
  std::uint64_t min_jobs = 100;
  double tolerance = 0.15;
  bool lazy = false;
  bool listen = false;
  std::string bind_address = "127.0.0.1";
  std::uint64_t port = 0;
  std::string port_file;
  double idle_timeout_ms = -1.0;
  std::uint64_t max_clients = 64;
  std::uint64_t cores = 1;
  std::string placement = "first-fit";
  common::Cli cli(
      "mcs-cli serve: long-running admission-control service over a\n"
      "mutable task set. Reads one request per line (admit/remove/record/\n"
      "tick/stats/ping/version/quit/shutdown, key=value arguments; '#'\n"
      "starts a comment) from stdin or --script and answers each on\n"
      "stdout — every response is deterministic, so replayed scripts are\n"
      "byte-comparable. With --listen the same protocol is served to many\n"
      "concurrent TCP clients over ONE shared admission state (see\n"
      "docs/serve_protocol.md). Arrivals are validated by the incremental\n"
      "EDF-VD + demand-bound test; record/tick close the measurement loop\n"
      "by re-optimizing drifted C^LO budgets from observed moments\n"
      "(Eq. 6). With --cores=N arrivals are partitioned across N per-core\n"
      "controllers by the --placement heuristic with fallback probing.");
  cli.add_string("script", &script,
                 "read requests from this file instead of stdin (replay)");
  cli.add_u64("min-jobs", &min_jobs,
              "jobs before drift verdicts fire (default 100)");
  cli.add_double("tolerance", &tolerance,
                 "relative moment-drift tolerance (default 0.15)");
  cli.add_flag("lazy-departures", &lazy,
               "defer demand-cache rebuilds from departures to the next\n"
               "arrival (O(tasks) departures)");
  std::string admission = "utilization";
  cli.add_string("admission", &admission,
                 "schedulability backend: utilization (Eq. 8 + LO demand "
                 "scan) or demand (escalates rejections to the "
                 "deadline-tightening search)");
  cli.add_flag("listen", &listen,
               "serve the protocol over TCP instead of stdin/--script");
  cli.add_string("bind", &bind_address,
                 "listen address (default 127.0.0.1)");
  cli.add_u64("port", &port, "listen port (0 picks an ephemeral port)");
  cli.add_string("port-file", &port_file,
                 "write the actually bound port to this file once "
                 "listening (handshake for test harnesses)");
  cli.add_double("idle-timeout-ms", &idle_timeout_ms,
                 "disconnect clients idle for this long (<= 0 disables)");
  cli.add_u64("max-clients", &max_clients,
              "simultaneous connection cap (default 64)");
  cli.add_u64("cores", &cores,
              "partition admission across N per-core controllers "
              "(default 1 = monolithic)");
  cli.add_string("placement", &placement,
                 "multicore probe order: first-fit | best-fit | worst-fit");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;
  if (cores == 0) {
    std::fputs("serve: --cores must be >= 1\n", stderr);
    return 1;
  }
  if (port > 65535) {
    std::fprintf(stderr, "serve: --port %llu out of range (max 65535)\n",
                 static_cast<unsigned long long>(port));
    return 1;
  }
  core::ServeSession::Config config;
  config.admission.eager_departure_rebuild = !lazy;
  config.admission.backend = core::parse_admission_backend(admission);
  config.moment_tolerance = tolerance;
  config.min_jobs = min_jobs;
  config.cores = cores;
  if (!parse_placement(placement, &config.placement)) {
    std::fprintf(stderr, "serve: unknown --placement '%s'\n",
                 placement.c_str());
    return 1;
  }
  core::ServeSession session(config);

  if (listen) {
    if (!script.empty()) {
      std::fputs("serve: --listen and --script are mutually exclusive\n",
                 stderr);
      return 1;
    }
    common::net::ServerConfig net_config;
    net_config.bind_address = bind_address;
    net_config.port = static_cast<std::uint16_t>(port);
    net_config.idle_timeout_ms = idle_timeout_ms;
    net_config.max_connections = max_clients;
    core::NetServeFront front(&session);
    common::net::LineServer server(
        net_config, [&front](std::uint64_t conn_id, const std::string& line) {
          return front.on_line(conn_id, line);
        });
    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      pf << server.port() << '\n';
      if (!pf) {
        std::fprintf(stderr, "serve: cannot write %s\n", port_file.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "serve: listening on %s:%u\n", bind_address.c_str(),
                 static_cast<unsigned>(server.port()));
    g_serve_server.store(&server, std::memory_order_release);
    (void)std::signal(SIGINT, serve_signal_handler);
    (void)std::signal(SIGTERM, serve_signal_handler);
    server.run();
    g_serve_server.store(nullptr, std::memory_order_release);
    const common::net::LineServer::Stats s = server.stats();
    std::fprintf(stderr,
                 "serve: stopped after %llu lines from %llu connections\n",
                 static_cast<unsigned long long>(s.lines),
                 static_cast<unsigned long long>(s.accepted));
    return 0;
  }

  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "serve: cannot open script '%s'\n",
                   script.c_str());
      return 1;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;
  std::string line;
  while (!session.closed() && std::getline(in, line)) {
    const std::string response = session.handle_line(line);
    if (!response.empty()) {
      std::fputs(response.c_str(), stdout);
      std::fputc('\n', stdout);
    }
  }
  return 0;
}

int cmd_client(int argc, const char* const* argv) {
  std::string connect_spec = "127.0.0.1:0";
  std::string script;
  common::Cli cli(
      "mcs-cli client: loopback client for `mcs-cli serve --listen`.\n"
      "Sends the request lines from --script (or stdin) to the server and\n"
      "prints every reply line to stdout, in request order. A session\n"
      "whose last request is neither quit nor shutdown gets a trailing\n"
      "quit appended so the connection (and this client) terminates.");
  cli.add_string("connect", &connect_spec, "server HOST:PORT");
  cli.add_string("script", &script,
                 "read requests from this file instead of stdin");
  if (!cli.parse(argc, argv)) return 1;

  const std::size_t colon = connect_spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= connect_spec.size()) {
    std::fprintf(stderr, "client: --connect needs HOST:PORT, got '%s'\n",
                 connect_spec.c_str());
    return 1;
  }
  const std::string host = connect_spec.substr(0, colon);
  const int port_value = std::atoi(connect_spec.c_str() + colon + 1);
  if (port_value <= 0 || port_value > 65535) {
    std::fprintf(stderr, "client: bad port in '%s'\n", connect_spec.c_str());
    return 1;
  }

  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "client: cannot open script '%s'\n",
                   script.c_str());
      return 1;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;
  std::string outgoing;
  std::string line;
  std::string last_request;
  while (std::getline(in, line)) {
    outgoing += line;
    outgoing += '\n';
    // Track the last non-comment, non-blank request to decide whether the
    // session already ends the connection itself.
    std::string t = line;
    const std::size_t first = t.find_first_not_of(" \t\r");
    if (first != std::string::npos && t[first] != '#') {
      const std::size_t last = t.find_last_not_of(" \t\r");
      last_request = t.substr(first, last - first + 1);
    }
  }
  if (last_request != "quit" && last_request != "shutdown")
    outgoing += "quit\n";

  int fd = -1;
  try {
    fd = common::net::connect_tcp(host,
                                  static_cast<std::uint16_t>(port_value));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client: %s\n", e.what());
    return 1;
  }
  // Push every request, then drain replies until the server closes the
  // connection (the trailing quit guarantees it does). The server reads
  // unconditionally — its reply queue is unbounded in memory — so a
  // blocking write-all/read-all pump cannot wedge.
  std::size_t sent = 0;
  while (sent < outgoing.size()) {
    const long w = common::net::write_retry(fd, outgoing.data() + sent,
                                            outgoing.size() - sent);
    if (w < 0) {
      std::fputs("client: write failed\n", stderr);
      common::net::close_retry(fd);
      return 1;
    }
    sent += static_cast<std::size_t>(w);
  }
  (void)::shutdown(fd, SHUT_WR);
  char buf[4096];
  for (;;) {
    const long r = common::net::read_retry(fd, buf, sizeof buf);
    if (r < 0) {
      std::fputs("client: read failed\n", stderr);
      common::net::close_retry(fd);
      return 1;
    }
    if (r == 0) break;
    std::fwrite(buf, 1, static_cast<std::size_t>(r), stdout);
  }
  common::net::close_retry(fd);
  return 0;
}

int cmd_partition(const std::string& path, int argc,
                  const char* const* argv) {
  std::uint64_t cores = 2;
  std::string heuristic_name = "worst-fit";
  common::Cli cli("mcs-cli partition: bin-pack the task set onto m cores "
                  "with a per-core EDF-VD test");
  cli.add_u64("cores", &cores, "number of processors");
  cli.add_string("heuristic", &heuristic_name,
                 "first-fit | best-fit | worst-fit");
  if (!cli.parse(argc, argv)) return 1;

  sched::PartitionHeuristic heuristic = sched::PartitionHeuristic::kWorstFit;
  if (heuristic_name == "first-fit")
    heuristic = sched::PartitionHeuristic::kFirstFit;
  else if (heuristic_name == "best-fit")
    heuristic = sched::PartitionHeuristic::kBestFit;
  else if (heuristic_name != "worst-fit") {
    std::fprintf(stderr, "unknown --heuristic '%s'\n",
                 heuristic_name.c_str());
    return 1;
  }

  const mc::TaskSet tasks = load_file(path);
  const sched::PartitionResult r =
      sched::partition_tasks(tasks, cores, heuristic);
  if (!r.feasible) {
    std::printf("INFEASIBLE on %llu cores with %s\n",
                static_cast<unsigned long long>(cores),
                heuristic_name.c_str());
    const auto minimum = sched::minimum_cores(tasks, 64, heuristic);
    if (minimum.has_value())
      std::printf("minimum feasible cores: %zu\n", *minimum);
    return 1;
  }
  std::printf("feasible on %llu cores (%s), max core load %.2f%%\n",
              static_cast<unsigned long long>(cores), heuristic_name.c_str(),
              100.0 * r.max_core_hi_utilization());
  for (std::size_t c = 0; c < r.cores.size(); ++c) {
    std::printf("core %zu (x = %.3f):", c, r.per_core[c].x);
    for (const mc::McTask& t : r.cores[c]) std::printf(" %s", t.name.c_str());
    std::puts("");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "campaign") return cmd_campaign(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    if (command == "client") return cmd_client(argc - 1, argv + 1);
    if (command == "wcet") {
      if (argc < 3) {
        std::fprintf(stderr, "wcet requires a kernel name\n");
        return usage();
      }
      return cmd_wcet(argv[2], argc - 2, argv + 2);
    }
    if (command == "analyze" || command == "optimize" ||
        command == "simulate" || command == "partition") {
      // `mcs-cli <cmd> <file> [options]`; `<cmd> --help` works without a
      // file because every command parses its options before loading.
      std::string file;
      int opt_argc = argc - 1;
      const char* const* opt_argv = argv + 1;
      if (argc >= 3 && argv[2][0] != '-') {
        file = argv[2];
        opt_argc = argc - 2;
        opt_argv = argv + 2;
      } else if (argc < 3) {
        std::fprintf(stderr, "%s requires a task-set file\n",
                     command.c_str());
        return usage();
      }
      if (command == "analyze") return cmd_analyze(file, opt_argc, opt_argv);
      if (command == "optimize")
        return cmd_optimize(file, opt_argc, opt_argv);
      if (command == "partition")
        return cmd_partition(file, opt_argc, opt_argv);
      return cmd_simulate(file, opt_argc, opt_argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcs-cli: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return usage();
}
