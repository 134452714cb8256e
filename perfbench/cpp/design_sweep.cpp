// design_sweep: synthetic task sets through taskgen -> assign -> optimize
// -> admit -> simulate, with no kernel measurement. One op runs three
// stages:
//   A. a fig5-style sweep: exp::run_policy_sweep (a GA per task set);
//   B. a fig6 policy-mode acceptance sweep: core::policy_acceptance_ratio
//      with vp_n_sigma under the demand admission backend;
//   C. a slice of exp::run_sim_campaign.
// Outside the timed region, each op re-runs one sweep point (a different
// one each op) through core::compare_policies to get its GA winners for
// the check. The traced run replays all three at --jobs=1 from the public calls the
// library functions make, with a span around each, and checks the replay
// reproduces their results.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>

#include "common/thread_pool.hpp"
#include "core/acceptance.hpp"
#include "core/chebyshev_wcet.hpp"
#include "core/objective.hpp"
#include "exp/policy_sweep.hpp"
#include "sched/edf_vd.hpp"
#include "sched/policies.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = mcs::core;
namespace exp = mcs::exp;
namespace sched = mcs::sched;
using mcs::common::Rng;

// Stage A: fig5's utilization axis and GA size, on a two-island memoized GA.
const std::vector<double> kSweepU = {0.4, 0.5, 0.6, 0.7, 0.8};
constexpr std::size_t kSweepSets = 100;
// Stage B: fig6 policy mode.
const std::vector<double> kAcceptU = {1.0, 1.2, 1.4, 1.6, 1.8};
constexpr std::size_t kAcceptSets = 600;
constexpr const char* kAcceptPolicy = "vp_n_sigma";
// Stage C: campaign slice.
const std::vector<double> kCampaignU = {0.5, 0.8, 1.1};
constexpr std::size_t kCampaignSets = 400;
constexpr std::size_t kCampaignBlock = 25;
constexpr double kCampaignHorizon = 50000.0;

constexpr std::size_t kSetups = 9;  ///< cold set-ups setup_s is the median of
constexpr std::size_t kParallelOps = 3;  ///< untraced ops in the traced run
constexpr double kItemsPerOp =
    5.0 * kSweepSets + 5.0 * kAcceptSets + 3.0 * kCampaignSets;

core::OptimizerConfig optimizer_config() {
  core::OptimizerConfig config;
  config.ga.population_size = 40;
  config.ga.generations = 50;
  config.islands.islands = 2;
  config.islands.migration_interval = 10;
  config.islands.migrants = 2;
  return config;
}

std::uint64_t point_seed(std::uint64_t seed, double u) {
  return seed + static_cast<std::uint64_t>(u * 1000.0);  // as run_policy_sweep
}

/// Sweep point `p` through core::compare_policies with its GA winners.
SweepPoint winners_point(std::uint64_t seed, std::size_t p, std::size_t sets) {
  SweepPoint point;
  point.u = kSweepU[p];
  point.seed = point_seed(seed, point.u);
  point.scores = core::compare_policies(point.u, sets, point.seed,
                                        optimizer_config(), {}, nullptr,
                                        &point.winners);
  return point;
}

exp::SimCampaignConfig campaign_config(std::uint64_t seed) {
  exp::SimCampaignConfig cfg;
  cfg.u_values = kCampaignU;
  cfg.sets_per_point = kCampaignSets;
  cfg.seed = seed;
  cfg.n = 3.0;
  cfg.sim.horizon = kCampaignHorizon;
  cfg.block = kCampaignBlock;
  return cfg;
}

struct OpOutput {
  std::vector<exp::PolicySweepPoint> sweep;
  std::vector<double> acceptance;
  std::vector<exp::SimCampaignCell> cells;
};

OpOutput run_op(std::uint64_t seed, std::size_t sweep_sets,
                std::size_t accept_sets, std::size_t campaign_sets,
                const core::OptimizerConfig& optimizer) {
  OpOutput out;
  out.sweep = exp::run_policy_sweep(kSweepU, sweep_sets, seed, optimizer);
  // A fresh policy per op: its synthesis cache must not carry over.
  const sched::WcetOptPolicyPtr policy = sched::make_policy(kAcceptPolicy);
  for (const double u : kAcceptU)
    out.acceptance.push_back(core::policy_acceptance_ratio(
        *policy, core::AdmissionBackend::kDemand, u, accept_sets,
        point_seed(seed, u)));
  exp::SimCampaignConfig cfg = campaign_config(seed);
  cfg.sets_per_point = campaign_sets;
  out.cells = exp::run_sim_campaign(cfg);
  return out;
}

CheckError check_op(const OpOutput& op, const SweepPoint& checked,
                    std::size_t p) {
  if (op.sweep.size() != kSweepU.size())
    return std::string("policy sweep returned the wrong number of points");
  if (CheckError e = check_sweep_point(checked, op.sweep[p].scores, kSweepSets))
    return e;
  for (const double ratio : op.acceptance)
    if (!(ratio >= 0.0 && ratio <= 1.0))
      return std::string("acceptance ratio outside [0, 1]");
  return check_cells(op.cells);
}

std::uint64_t digest_of(const OpOutput& op) {
  Digest d;
  for (const exp::PolicySweepPoint& point : op.sweep) {
    for (const core::PolicyScore& s : point.scores) {
      d.add(s.policy);
      d.add(s.p_ms);
      d.add(s.max_u_lc);
      d.add(s.objective);
      d.add(s.feasible_fraction);
    }
  }
  for (const double r : op.acceptance) d.add(r);
  for (const exp::SimCampaignCell& c : op.cells) {
    d.add(c.generated);
    d.add(c.admitted);
    d.add(c.agg.hc_jobs_released);
    d.add(c.agg.hc_jobs_overrun);
    d.add(c.agg.hc_deadline_misses);
    d.add(c.agg.lc_jobs_released);
    d.add(c.agg.lc_jobs_dropped);
    d.add(c.agg.mode_switches);
  }
  return d.value();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_scores(const std::vector<core::PolicyScore>& a,
                 const std::vector<core::PolicyScore>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].policy != b[i].policy || !same_bits(a[i].p_ms, b[i].p_ms) ||
        !same_bits(a[i].max_u_lc, b[i].max_u_lc) ||
        !same_bits(a[i].objective, b[i].objective) ||
        !same_bits(a[i].feasible_fraction, b[i].feasible_fraction))
      return false;
  return true;
}

/// A one-set-per-point op with a two-generation GA: spins up the pool and
/// touches every stage's code once. A full-size GA here would make the
/// set-up time a reading of GA throughput, whose fan-out of five points
/// over the workers also makes it noisy.
void warm_up(std::uint64_t seed) {
  core::OptimizerConfig optimizer = optimizer_config();
  optimizer.ga.population_size = 4;
  optimizer.ga.generations = 2;
  (void)run_op(seed, 1, 1, 1, optimizer);
}

/// Full-size op number `index`: timed program calls, then the checks, for
/// which sweep point index % 5 is re-run untimed with its GA winners.
OpOutcome timed_op(std::uint64_t seed, std::size_t index,
                   OpOutput* keep = nullptr) {
  OpOutcome outcome;
  const std::int64_t t0 = now_ns();
  OpOutput op =
      run_op(seed, kSweepSets, kAcceptSets, kCampaignSets, optimizer_config());
  outcome.seconds = seconds_since(t0);
  const std::size_t p = index % kSweepU.size();
  outcome.error = check_op(op, winners_point(seed, p, kSweepSets), p);
  outcome.digest = digest_of(op);
  if (keep != nullptr) *keep = std::move(op);
  return outcome;
}

// ---- traced replay ---------------------------------------------------------

struct ReplayCounts {
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t sim_jobs = 0;
};

/// core::compare_policies for one point, call by call.
std::vector<core::PolicyScore> replay_point(Tracer& tracer, double u,
                                            std::uint64_t seed,
                                            std::size_t sets,
                                            ReplayCounts* counts) {
  const auto baselines = core::baseline_policies();
  const core::OptimizerConfig optimizer = optimizer_config();
  std::vector<core::PolicyScore> scores(baselines.size() + 1);
  for (std::size_t p = 0; p < baselines.size(); ++p)
    scores[p].policy = baselines[p]->name();
  scores.back().policy = "proposed(GA)";
  Rng rng(seed);
  const mcs::taskgen::GeneratorConfig gen;
  for (std::size_t s = 0; s < sets; ++s) {
    Rng set_rng = rng.split();
    mcs::mc::TaskSet tasks;
    {
      ScopedSpan span(tracer, "taskgen.generate_hc_only", s);
      tasks = mcs::taskgen::generate_hc_only(gen, u, set_rng);
    }
    std::vector<core::ObjectiveBreakdown> breakdowns;
    for (const sched::WcetOptPolicyPtr& baseline : baselines) {
      ScopedSpan span(tracer, "core.apply_and_evaluate_policy", s);
      breakdowns.push_back(
          core::apply_and_evaluate_policy(tasks, *baseline, set_rng));
    }
    core::OptimizerConfig opt = optimizer;
    opt.ga.seed = set_rng();
    {
      ScopedSpan span(tracer, "ga.optimize_multipliers_ga", s);
      const core::OptimizationResult ga = core::optimize_multipliers_ga(tasks, opt);
      breakdowns.push_back(ga.breakdown);
      counts->evaluations += ga.search.evaluations;
      counts->cache_hits += ga.search.cache_hits;
      counts->cache_misses += ga.search.cache_misses;
    }
    for (std::size_t p = 0; p < breakdowns.size(); ++p) {
      scores[p].p_ms += breakdowns[p].p_ms;
      scores[p].max_u_lc += breakdowns[p].max_u_lc;
      scores[p].objective += breakdowns[p].objective;
      scores[p].feasible_fraction += breakdowns[p].feasible ? 1.0 : 0.0;
    }
  }
  const auto denom = static_cast<double>(sets);
  for (core::PolicyScore& s : scores) {
    s.p_ms /= denom;
    s.max_u_lc /= denom;
    s.objective /= denom;
    s.feasible_fraction /= denom;
  }
  return scores;
}

/// core::policy_acceptance_ratio for one point, call by call.
double replay_acceptance(Tracer& tracer, const sched::WcetOptPolicy& policy,
                         double u, std::uint64_t seed, std::size_t sets) {
  Rng rng(seed);
  const mcs::taskgen::GeneratorConfig gen;
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < sets; ++s) {
    Rng set_rng = rng.split();
    mcs::mc::TaskSet tasks;
    {
      ScopedSpan span(tracer, "taskgen.generate_mixed", s);
      tasks = mcs::taskgen::generate_mixed(gen, u, set_rng);
    }
    ScopedSpan span(tracer, "sched.acceptance.policy_accepts", s);
    if (core::policy_accepts(policy, tasks, set_rng,
                             core::AdmissionBackend::kDemand))
      ++accepted;
  }
  return static_cast<double>(accepted) / static_cast<double>(sets);
}

/// exp::run_sim_campaign, set by set (integer counters only: the campaign's
/// block merges reorder the floating-point folds).
std::vector<exp::SimCampaignCell> replay_campaign(Tracer& tracer,
                                                  const exp::SimCampaignConfig& cfg,
                                                  ReplayCounts* counts) {
  std::vector<exp::SimCampaignCell> cells;
  for (std::size_t p = 0; p < cfg.u_values.size(); ++p) {
    exp::SimCampaignCell cell;
    cell.u_bound = cfg.u_values[p];
    for (std::size_t s = 0; s < cfg.sets_per_point; ++s) {
      const std::uint64_t global = p * cfg.sets_per_point + s;
      Rng rng(mcs::common::index_seed(cfg.seed, global));
      mcs::mc::TaskSet tasks;
      {
        ScopedSpan span(tracer, "taskgen.generate_mixed", global);
        tasks = mcs::taskgen::generate_mixed(mcs::taskgen::GeneratorConfig{},
                                             cell.u_bound, rng);
      }
      if (tasks.size() == 0) continue;
      {
        ScopedSpan span(tracer, "core.apply_chebyshev_assignment", global);
        const std::vector<double> genes(
            tasks.count(mcs::mc::Criticality::kHigh), cfg.n);
        (void)core::apply_chebyshev_assignment(tasks, genes);
      }
      mcs::sim::SimConfig config = cfg.sim;
      config.x = 1.0;
      sched::EdfVdResult vd;
      {
        ScopedSpan span(tracer, "sched.acceptance.edf_vd_test", global);
        vd = sched::edf_vd_test(tasks);
      }
      if (vd.schedulable && vd.x > 0.0) {
        config.x = vd.x;
        ++cell.admitted;
      }
      config.seed = mcs::common::index_seed(cfg.seed + 1, global);
      ++cell.generated;
      ScopedSpan span(tracer, "sim.simulate", global);
      const mcs::sim::SimMetrics m = mcs::sim::simulate(tasks, config).metrics;
      counts->sim_jobs += m.hc_jobs_released + m.lc_jobs_released;
      cell.agg.add(m);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

OpOutput replay_op(Tracer& tracer, std::uint64_t seed, ReplayCounts* counts) {
  OpOutput out;
  {
    ScopedSpan span(tracer, "exp.policy_sweep", 1);
    for (const double u : kSweepU) {
      exp::PolicySweepPoint point;
      point.u_hc_hi = u;
      point.scores = replay_point(tracer, u, point_seed(seed, u), kSweepSets, counts);
      out.sweep.push_back(std::move(point));
    }
  }
  {
    ScopedSpan span(tracer, "exp.acceptance_sweep", 2);
    const sched::WcetOptPolicyPtr policy = sched::make_policy(kAcceptPolicy);
    for (const double u : kAcceptU)
      out.acceptance.push_back(
          replay_acceptance(tracer, *policy, u, point_seed(seed, u), kAcceptSets));
  }
  {
    ScopedSpan span(tracer, "exp.sim_campaign", 3);
    out.cells = replay_campaign(tracer, campaign_config(seed), counts);
  }
  return out;
}

CheckError compare_replay(const OpOutput& replay, const OpOutput& reference) {
  for (std::size_t p = 0; p < reference.sweep.size(); ++p) {
    if (!same_scores(replay.sweep[p].scores, reference.sweep[p].scores))
      return std::string("replayed sweep differs from exp::run_policy_sweep");
  }
  for (std::size_t i = 0; i < reference.acceptance.size(); ++i)
    if (!same_bits(replay.acceptance[i], reference.acceptance[i]))
      return std::string("replayed acceptance differs from policy_acceptance_ratio");
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    const exp::SimCampaignCell& a = replay.cells[i];
    const exp::SimCampaignCell& b = reference.cells[i];
    if (a.generated != b.generated || a.admitted != b.admitted ||
        a.agg.hc_jobs_released != b.agg.hc_jobs_released ||
        a.agg.lc_jobs_released != b.agg.lc_jobs_released ||
        a.agg.hc_deadline_misses != b.agg.hc_deadline_misses ||
        a.agg.mode_switches != b.agg.mode_switches)
      return std::string("replayed campaign differs from exp::run_sim_campaign");
  }
  return std::nullopt;
}

Result traced_run(const Options& options, Tracer& tracer) {
  Result result;
  std::map<std::string, double> layer;
  const std::size_t nproc = mcs::common::default_jobs();

  // The untraced op at nproc, warm: the wall the parallel efficiency
  // divides.
  warm_up(options.seed);
  OpOutput reference;
  std::vector<double> walls;
  for (std::size_t i = 0; i < kParallelOps; ++i) {
    ++result.attempted;
    const OpOutcome outcome = timed_op(options.seed, i, &reference);
    walls.push_back(outcome.seconds);
    result.digest = outcome.digest;
    if (outcome.error) {
      ++result.failed;
      result.notes.push_back("design_sweep: " + *outcome.error);
    }
  }
  const double parallel_wall = median(walls);

  mcs::common::set_default_jobs(1);
  double serial_s[2] = {0.0, 0.0};
  ReplayCounts counts;
  OpOutput replay;
  // Spans off, on, off, on: the overhead ratio compares the summed pairs.
  for (int pass = 0; pass < 4; ++pass) {
    const int traced = pass % 2;
    tracer.clear();
    tracer.set_enabled(traced == 1);
    counts = ReplayCounts{};
    const std::int64_t t0 = now_ns();
    replay = replay_op(tracer, options.seed, &counts);
    serial_s[traced] += seconds_since(t0);
    ++result.attempted;
    if (CheckError e = compare_replay(replay, reference)) {
      ++result.failed;
      result.notes.push_back("design_sweep traced: " + *e);
    }
  }
  tracer.set_enabled(false);
  mcs::common::set_default_jobs(nproc);

  layer["taskgen.generate_s"] = tracer.layer_self_s("taskgen");
  layer["ga.optimize_s"] = tracer.layer_self_s("ga");
  layer["ga.evaluations"] = static_cast<double>(counts.evaluations);
  const double lookups =
      static_cast<double>(counts.cache_hits + counts.cache_misses);
  layer["ga.cache_hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(counts.cache_hits) / lookups : 0.0;
  layer["ga.eval_us"] = counts.evaluations == 0
                            ? 0.0
                            : layer["ga.optimize_s"] * 1e6 /
                                  static_cast<double>(counts.evaluations);
  layer["sched.acceptance_s"] = tracer.layer_self_s("sched.acceptance");
  double ratio_sum = 0.0;
  for (const double r : replay.acceptance) ratio_sum += r;
  layer["sched.acceptance_ratio"] =
      ratio_sum / static_cast<double>(replay.acceptance.size());
  layer["sim.simulate_s"] = tracer.layer_self_s("sim");
  layer["sim.jobs"] = static_cast<double>(counts.sim_jobs);
  layer["sim.ns_per_job"] =
      counts.sim_jobs == 0 ? 0.0
                           : layer["sim.simulate_s"] * 1e9 /
                                 static_cast<double>(counts.sim_jobs);
  layer["common.parallel_efficiency"] =
      serial_s[1] / 2.0 / (static_cast<double>(nproc) * parallel_wall);
  layer["bench.trace_overhead_ratio"] = serial_s[1] / serial_s[0];
  char note[160];
  std::snprintf(note, sizeof note,
                "design_sweep traced: core %.3f s, exp %.3f s of %.3f s",
                tracer.layer_self_s("core"), tracer.layer_self_s("exp"),
                serial_s[1] / 2.0);
  result.notes.emplace_back(note);
  add_per_layer(&result, layer);
  return result;
}

}  // namespace

CheckError check_sweep_point(const SweepPoint& point,
                             const std::vector<core::PolicyScore>& swept,
                             std::size_t tasksets) {
  if (point.winners.size() != tasksets)
    return std::string("sweep point is missing GA winners");
  if (!same_scores(point.scores, swept)) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "compare_policies at U=%.2f differs from the swept point",
                  point.u);
    return std::string(buf);
  }
  const auto proposed = std::find_if(
      swept.begin(), swept.end(),
      [](const core::PolicyScore& s) { return s.policy == "proposed(GA)"; });
  if (proposed == swept.end())
    return std::string("sweep point has no proposed(GA) score");
  // Re-generate each replication's task set from compare_policies' split
  // chain and evaluate the winner's multipliers from scratch.
  Rng rng(point.seed);
  const mcs::taskgen::GeneratorConfig gen;
  core::PolicyScore sum;
  for (std::size_t s = 0; s < tasksets; ++s) {
    Rng set_rng = rng.split();
    const mcs::mc::TaskSet tasks =
        mcs::taskgen::generate_hc_only(gen, point.u, set_rng);
    const core::ObjectiveBreakdown b =
        core::evaluate_multipliers(tasks, point.winners[s]);
    sum.p_ms += b.p_ms;
    sum.max_u_lc += b.max_u_lc;
    sum.objective += b.objective;
    sum.feasible_fraction += b.feasible ? 1.0 : 0.0;
  }
  const auto denom = static_cast<double>(tasksets);
  if (!same_bits(sum.p_ms / denom, proposed->p_ms) ||
      !same_bits(sum.max_u_lc / denom, proposed->max_u_lc) ||
      !same_bits(sum.objective / denom, proposed->objective) ||
      !same_bits(sum.feasible_fraction / denom, proposed->feasible_fraction)) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "GA winners at U=%.2f do not re-evaluate to their breakdown",
                  point.u);
    return std::string(buf);
  }
  return std::nullopt;
}

CheckError check_cells(const std::vector<exp::SimCampaignCell>& cells) {
  if (cells.empty()) return std::string("campaign returned no cells");
  for (const exp::SimCampaignCell& c : cells) {
    if (c.generated == 0) return std::string("campaign cell simulated no set");
    if (c.admitted == c.generated && c.agg.hc_deadline_misses != 0) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "all-admitted cell U=%.2f has %llu HC deadline misses",
                    c.u_bound,
                    static_cast<unsigned long long>(c.agg.hc_deadline_misses));
      return std::string(buf);
    }
  }
  return std::nullopt;
}

Result run_design_sweep(const Options& options, Tracer& tracer) {
  if (options.trace) return traced_run(options, tracer);

  Result result;
  warm_up(options.seed);
  const double own_setup_s = seconds_since_start();
  if (options.setup_only) {
    result.add("setup_s", own_setup_s, "s");
    return result;
  }
  const double setup_s = cold_setup_s(options, kSetups, own_setup_s);
  std::size_t ops = 0;
  const std::vector<double> op_seconds = run_ops(
      options, [&] { return timed_op(options.seed, ops++); }, &result);
  add_batch_metrics(&result, op_seconds, kItemsPerOp, setup_s);
  return result;
}

}  // namespace perfbench
