// paper_measure: the Table I and Table II measurement campaigns at the
// paper's qsort-10000 size, followed by C^LO assignment of every Table II
// kernel through the policy roster.
//
// Untraced runs call exp::run_table1 / exp::run_table2 at --jobs=nproc.
// The traced run replays the same campaigns at --jobs=1 from the public
// calls those functions make (Kernel::run_once per sample, the moments,
// wcet::analyze_program, the empirical distribution), with a span around
// each, and checks the replay reproduces their rows bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>

#include "apps/registry.hpp"
#include "common/stats_accumulator.hpp"
#include "common/thread_pool.hpp"
#include "sched/policies.hpp"
#include "stats/chebyshev.hpp"
#include "wcet/analyzer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace apps = mcs::apps;
namespace exp = mcs::exp;
namespace sched = mcs::sched;

constexpr std::size_t kSamples = 500;      ///< per kernel and table
constexpr std::size_t kLargeQsort = 10000; ///< the paper's largest input
constexpr std::size_t kWarmupSamples = 1;
constexpr std::size_t kSetups = 9;      ///< cold set-ups setup_s is the median of
constexpr std::size_t kParallelOps = 3;  ///< untraced ops in the traced run
constexpr const char* kRoster =
    "cantelli_n_sigma,vp_n_sigma,gauss_n_sigma,chebyshev,acet";
constexpr std::uint64_t kTable2SeedOffset = 100;  ///< as in exp::run_table2

/// Kernel samples one op measures: every Table I and Table II campaign.
constexpr double kItemsPerOp = (7.0 + 5.0) * kSamples;

struct OpOutput {
  std::vector<exp::Table1Row> table1;
  exp::Table2Data table2;
  std::vector<Assignment> assignments;
};

/// Assigns C^LO to every Table II kernel with every roster policy. The
/// profile comes from the kernel's Table I row (moments and WCET^pes).
std::vector<Assignment> assign_roster(
    const std::vector<exp::Table1Row>& table1,
    const std::vector<sched::WcetOptPolicyPtr>& roster) {
  std::vector<Assignment> out;
  for (const apps::KernelPtr& kernel : apps::table2_kernels()) {
    const std::string name = kernel->name();
    const auto row = std::find_if(table1.begin(), table1.end(),
                                  [&](const exp::Table1Row& r) {
                                    return r.application == name;
                                  });
    if (row == table1.end())
      throw std::logic_error("assign_roster: no Table I row for " + name);
    sched::HcTaskProfile profile;
    profile.acet = row->acet;
    profile.sigma = row->sigma;
    profile.wcet_pes = row->wcet_pes;
    profile.period = 10.0 * row->wcet_pes;
    mcs::common::Rng rng(0);
    for (const sched::WcetOptPolicyPtr& policy : roster)
      out.push_back({name, policy->name(), row->acet, row->sigma,
                     row->wcet_pes, policy->wcet_opt(profile, rng)});
  }
  return out;
}

OpOutput run_op(std::uint64_t seed, std::size_t samples,
                const std::vector<sched::WcetOptPolicyPtr>& roster) {
  OpOutput out;
  out.table1 = exp::run_table1(samples, seed, kLargeQsort);
  out.table2 = exp::run_table2(samples, seed);
  out.assignments = assign_roster(out.table1, roster);
  return out;
}

CheckError check_op(const OpOutput& op) {
  if (CheckError e = check_table1(op.table1)) return e;
  if (CheckError e = check_table2(op.table2)) return e;
  return check_assignments(op.assignments);
}

std::uint64_t digest_of(const OpOutput& op);

/// One full-size op: timed program calls, then the checks.
OpOutcome timed_op(std::uint64_t seed,
                   const std::vector<sched::WcetOptPolicyPtr>& roster,
                   OpOutput* keep = nullptr) {
  OpOutcome outcome;
  const std::int64_t t0 = now_ns();
  OpOutput op = run_op(seed, kSamples, roster);
  outcome.seconds = seconds_since(t0);
  outcome.error = check_op(op);
  outcome.digest = digest_of(op);
  if (keep != nullptr) *keep = std::move(op);
  return outcome;
}

std::uint64_t digest_of(const OpOutput& op) {
  Digest d;
  for (const exp::Table1Row& r : op.table1) {
    d.add(r.application);
    d.add(r.acet);
    d.add(r.wcet_pes);
    d.add(r.sigma);
    d.add(r.overrun_at_acet);
    for (const double f : r.overrun_at_fraction) d.add(f);
  }
  for (const exp::Table2Row& r : op.table2.rows)
    for (const double m : r.measured) d.add(m);
  for (const Assignment& a : op.assignments) d.add(a.wcet_lo);
  return d.value();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool rows_equal(const std::vector<exp::Table1Row>& a,
                const std::vector<exp::Table1Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].application != b[i].application ||
        !same_bits(a[i].acet, b[i].acet) ||
        !same_bits(a[i].sigma, b[i].sigma) ||
        !same_bits(a[i].wcet_pes, b[i].wcet_pes) ||
        !same_bits(a[i].overrun_at_acet, b[i].overrun_at_acet))
      return false;
    for (std::size_t d = 0; d < a[i].overrun_at_fraction.size(); ++d)
      if (!same_bits(a[i].overrun_at_fraction[d], b[i].overrun_at_fraction[d]))
        return false;
  }
  return true;
}

bool table2_equal(const exp::Table2Data& a, const exp::Table2Data& b) {
  if (a.applications != b.applications || a.rows.size() != b.rows.size())
    return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].measured.size() != b.rows[r].measured.size()) return false;
    for (std::size_t k = 0; k < a.rows[r].measured.size(); ++k)
      if (!same_bits(a.rows[r].measured[k], b.rows[r].measured[k]))
        return false;
  }
  return true;
}

// ---- traced replay ---------------------------------------------------------

/// Per-kernel campaign cost seen by the replay.
struct CampaignCost {
  std::string kernel;
  std::size_t table = 0;
  double seconds = 0.0;
  double cycles = 0.0;
};

/// apps::measure_kernel, call by call, with a span around each layer.
apps::ExecutionProfile replay_campaign(Tracer& tracer, const apps::Kernel& kernel,
                                       std::size_t samples, std::uint64_t seed,
                                       std::size_t table,
                                       std::vector<CampaignCost>* costs) {
  apps::ExecutionProfile profile;
  profile.name = kernel.name();
  profile.samples.resize(samples);
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(tracer, "apps." + profile.name, 0);
    for (std::size_t i = 0; i < samples; ++i) {
      mcs::common::Rng rng(mcs::common::index_seed(seed, i));
      profile.samples[i] = static_cast<double>(kernel.run_once(rng));
    }
  }
  CampaignCost cost{profile.name, table, seconds_since(t0), 0.0};
  for (const double s : profile.samples) cost.cycles += s;
  costs->push_back(cost);
  {
    ScopedSpan span(tracer, "stats.moments", 0);
    mcs::common::StatsAccumulator acc;
    for (const double value : profile.samples) acc.add(value);
    profile.acet = acc.mean();
    profile.sigma = acc.stddev();
    profile.observed_max = acc.max();
  }
  mcs::wcet::ProgramPtr program;
  {
    ScopedSpan span(tracer, "apps.worst_case_program", 0);
    program = kernel.worst_case_program();
  }
  {
    ScopedSpan span(tracer, "wcet.analyze_program", 0);
    profile.wcet_pes = mcs::wcet::analyze_program(*program).wcet();
  }
  return profile;
}

/// The whole op replayed serially; fills `costs` with every campaign.
OpOutput replay_op(Tracer& tracer, std::uint64_t seed, std::size_t samples,
                   const std::vector<sched::WcetOptPolicyPtr>& roster,
                   std::vector<apps::ExecutionProfile>* profiles,
                   std::vector<CampaignCost>* costs) {
  OpOutput out;
  {
    ScopedSpan span(tracer, "exp.table1", 0);
    const auto kernels = apps::table1_kernels(kLargeQsort);
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      apps::ExecutionProfile p =
          replay_campaign(tracer, *kernels[k], samples, seed + k, 1, costs);
      ScopedSpan stats(tracer, "stats.overrun_rate", 0);
      exp::Table1Row row;
      row.application = p.name;
      row.acet = p.acet;
      row.wcet_pes = static_cast<double>(p.wcet_pes);
      row.sigma = p.sigma;
      row.overrun_at_acet = p.overrun_rate(p.acet);
      for (std::size_t d = 0; d < exp::kTable1Divisors.size(); ++d)
        row.overrun_at_fraction[d] =
            p.overrun_rate(row.wcet_pes / exp::kTable1Divisors[d]);
      out.table1.push_back(row);
      profiles->push_back(std::move(p));
    }
  }
  {
    ScopedSpan span(tracer, "exp.table2", 0);
    const auto kernels = apps::table2_kernels();
    std::vector<mcs::stats::EmpiricalDistribution> empiricals;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      apps::ExecutionProfile p = replay_campaign(
          tracer, *kernels[k], samples, seed + kTable2SeedOffset + k, 2, costs);
      ScopedSpan stats(tracer, "stats.empirical", 0);
      out.table2.applications.push_back(p.name);
      empiricals.push_back(p.empirical());
      profiles->push_back(std::move(p));
    }
    ScopedSpan stats(tracer, "stats.exceedance_at_n", 0);
    for (int n = 0; n <= 4; ++n) {
      exp::Table2Row row;
      row.n = n;
      row.analysis_bound = mcs::stats::chebyshev_exceedance_bound(n);
      for (const auto& emp : empiricals)
        row.measured.push_back(emp.exceedance_at_n(n));
      out.table2.rows.push_back(std::move(row));
    }
  }
  {
    ScopedSpan span(tracer, "sched.policy_assign", 0);
    out.assignments = assign_roster(out.table1, roster);
  }
  return out;
}

Result traced_run(const Options& options, Tracer& tracer,
                  const std::vector<sched::WcetOptPolicyPtr>& roster) {
  Result result;
  std::map<std::string, double> layer;
  const std::size_t nproc = mcs::common::default_jobs();

  // The untraced op at nproc, warm: the wall the parallel efficiency
  // divides.
  (void)run_op(options.seed, kWarmupSamples, roster);
  OpOutput reference;
  std::vector<double> walls;
  for (std::size_t i = 0; i < kParallelOps; ++i) {
    ++result.attempted;
    const OpOutcome outcome = timed_op(options.seed, roster, &reference);
    walls.push_back(outcome.seconds);
    result.digest = outcome.digest;
    if (outcome.error) {
      ++result.failed;
      result.notes.push_back("paper_measure: " + *outcome.error);
    }
  }
  const double parallel_wall = median(walls);

  mcs::common::set_default_jobs(1);
  double serial_s[2] = {0.0, 0.0};
  std::vector<CampaignCost> costs;
  // Spans off, on, off, on: the overhead ratio compares the summed pairs.
  for (int pass = 0; pass < 4; ++pass) {
    const int traced = pass % 2;
    tracer.clear();
    tracer.set_enabled(traced == 1);
    std::vector<apps::ExecutionProfile> profiles;
    costs.clear();
    const std::int64_t t0 = now_ns();
    const OpOutput replay =
        replay_op(tracer, options.seed, kSamples, roster, &profiles, &costs);
    serial_s[traced] += seconds_since(t0);
    ++result.attempted;
    CheckError e;
    if (!rows_equal(replay.table1, reference.table1) ||
        !table2_equal(replay.table2, reference.table2))
      e = "traced replay differs from exp::run_table1/run_table2";
    for (const apps::ExecutionProfile& p : profiles)
      if (!e) e = check_profile(p);
    if (e) {
      ++result.failed;
      result.notes.push_back("paper_measure traced: " + *e);
    }
  }
  tracer.set_enabled(false);
  mcs::common::set_default_jobs(nproc);

  layer["apps.measure_s"] = tracer.layer_self_s("apps");
  std::map<std::string, std::pair<double, double>> per_kernel;  // s, samples
  double total_cycles = 0.0;
  double campaign_total = 0.0;
  double table_max[3] = {0.0, 0.0, 0.0};
  for (const CampaignCost& c : costs) {
    per_kernel[c.kernel].first += c.seconds;
    per_kernel[c.kernel].second += static_cast<double>(kSamples);
    total_cycles += c.cycles;
    campaign_total += c.seconds;
    table_max[c.table] = std::max(table_max[c.table], c.seconds);
  }
  for (const auto& [kernel, cost] : per_kernel)
    layer["apps." + kernel + ".ns_per_sample"] = cost.first * 1e9 / cost.second;
  layer["apps.host_ns_per_model_cycle"] = campaign_total * 1e9 / total_cycles;
  // The two kernel-level maps each wait for their slowest campaign.
  layer["apps.critical_path_share"] =
      (table_max[1] + table_max[2]) / campaign_total;
  layer["wcet.analyze_s"] = tracer.layer_self_s("wcet");
  layer["stats.empirical_s"] = tracer.layer_self_s("stats");
  layer["sched.policy_assign_s"] = tracer.layer_self_s("sched");
  layer["common.parallel_efficiency"] =
      serial_s[1] / 2.0 / (static_cast<double>(nproc) * parallel_wall);
  layer["bench.trace_overhead_ratio"] = serial_s[1] / serial_s[0];
  add_per_layer(&result, layer);
  return result;
}

}  // namespace

CheckError check_table1(const std::vector<exp::Table1Row>& rows) {
  if (rows.size() != 7) return "Table I has " + std::to_string(rows.size()) + " rows";
  for (const exp::Table1Row& r : rows) {
    if (!(r.sigma >= 0.0) || !(r.acet > 0.0) || !(r.acet <= r.wcet_pes))
      return "Table I row " + r.application + " has invalid moments";
    const auto cantelli_ok = [&](double threshold, double overrun) {
      if (!(overrun >= 0.0 && overrun <= 1.0)) return false;
      if (threshold <= r.acet) return true;
      const double gap = threshold - r.acet;
      const double bound = r.sigma * r.sigma / (r.sigma * r.sigma + gap * gap);
      return overrun <= bound * (1.0 + 1e-9);
    };
    if (!cantelli_ok(r.acet, r.overrun_at_acet))
      return "Table I row " + r.application + " overrun at ACET out of range";
    for (std::size_t d = 0; d < exp::kTable1Divisors.size(); ++d)
      if (!cantelli_ok(r.wcet_pes / exp::kTable1Divisors[d],
                       r.overrun_at_fraction[d]))
        return "Table I row " + r.application +
               " overruns WCET^pes/" +
               std::to_string(static_cast<int>(exp::kTable1Divisors[d])) +
               " more often than Cantelli allows";
  }
  return std::nullopt;
}

CheckError check_table2(const exp::Table2Data& data) {
  if (data.applications.size() != 5 || data.rows.size() != 5)
    return std::string("Table II has the wrong shape");
  for (const exp::Table2Row& row : data.rows) {
    if (row.measured.size() != data.applications.size())
      return std::string("Table II row has the wrong width");
    if (row.n < 1) continue;
    const double bound = 1.0 / (1.0 + row.n * row.n);
    for (std::size_t k = 0; k < row.measured.size(); ++k)
      if (!(row.measured[k] >= 0.0 && row.measured[k] <= bound))
        return "Table II: " + data.applications[k] + " exceeds 1/(1+n^2) at n=" +
               std::to_string(row.n);
  }
  return std::nullopt;
}

CheckError check_profile(const apps::ExecutionProfile& profile) {
  if (profile.samples.empty()) return "empty campaign for " + profile.name;
  const double wcet = static_cast<double>(profile.wcet_pes);
  for (const double s : profile.samples)
    if (!(s <= wcet)) return "a sample of " + profile.name + " exceeds WCET^pes";
  const mcs::stats::EmpiricalDistribution emp = profile.empirical();
  for (int n = 1; n <= 4; ++n)
    if (!(emp.exceedance_at_n(n) <= 1.0 / (1.0 + n * n)))
      return profile.name + " exceeds 1/(1+n^2) at n=" + std::to_string(n);
  return std::nullopt;
}

CheckError check_assignments(const std::vector<Assignment>& rows) {
  if (rows.empty()) return std::string("no assignments");
  std::map<std::string, double> cantelli;
  for (const Assignment& a : rows)
    if (a.policy.rfind("cantelli", 0) == 0) cantelli[a.kernel] = a.wcet_lo;
  for (const Assignment& a : rows) {
    if (!(a.wcet_lo > 0.0 && a.wcet_lo <= a.wcet_pes))
      return "C^LO of " + a.kernel + " under " + a.policy + " out of (0, WCET^pes]";
    const bool unimodal = a.policy.rfind("vp", 0) == 0 ||
                          a.policy.rfind("gauss", 0) == 0;
    // Without samples or a distribution the unimodal bounds fall back to
    // the Cantelli multiplier bit for bit.
    if (unimodal && !same_bits(a.wcet_lo, cantelli[a.kernel]))
      return a.policy + " did not fall back to Cantelli for " + a.kernel;
    if (a.policy == "ACET" && !same_bits(a.wcet_lo, a.acet))
      return "ACET policy moved C^LO of " + a.kernel;
    if (a.policy.rfind("chebyshev(", 0) == 0 &&
        !same_bits(a.wcet_lo, std::min(a.acet + 3.0 * a.sigma, a.wcet_pes)))
      return "Chebyshev n=3 C^LO of " + a.kernel + " is not min(ACET+3sigma, WCET^pes)";
  }
  return std::nullopt;
}

Result run_paper_measure(const Options& options, Tracer& tracer) {
  const auto roster = sched::make_policy_list(kRoster);
  if (options.trace) return traced_run(options, tracer, roster);

  Result result;
  // Set-up: a one-sample op spins up the pool and touches every kernel's
  // code and data once.
  (void)run_op(options.seed, kWarmupSamples, roster);
  const double own_setup_s = seconds_since_start();
  if (options.setup_only) {
    result.add("setup_s", own_setup_s, "s");
    return result;
  }
  const double setup_s = cold_setup_s(options, kSetups, own_setup_s);
  const std::vector<double> op_seconds = run_ops(
      options, [&] { return timed_op(options.seed, roster); }, &result);
  add_batch_metrics(&result, op_seconds, kItemsPerOp, setup_s);
  return result;
}

}  // namespace perfbench
