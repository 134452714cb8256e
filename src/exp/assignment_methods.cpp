#include "exp/assignment_methods.hpp"

#include <span>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/thread_pool.hpp"
#include "sched/policies.hpp"
#include "stats/empirical.hpp"
#include "stats/ks_test.hpp"

namespace mcs::exp {

namespace {

double overrun_rate(std::span<const double> samples, double threshold) {
  std::size_t over = 0;
  for (const double s : samples)
    if (s > threshold) ++over;
  return samples.empty()
             ? 0.0
             : static_cast<double>(over) / static_cast<double>(samples.size());
}

}  // namespace

std::vector<AssignmentComparison> run_assignment_methods(
    std::size_t samples, std::uint64_t seed, const common::Executor& exec,
    const std::vector<sched::WcetOptPolicyPtr>& extra_methods) {
  const auto kernels = apps::table2_kernels();

  // The kernels' campaigns (seed + 31*k for global index k) run as one
  // flat measurement loop over the executor's slice. Every kernel then
  // owns a counter-based policy stream Rng(index_seed(seed, k)) — none of
  // the three methods actually draws from it, but tying the stream to the
  // kernel's global index keeps the loop order-independent by
  // construction, so the kernels evaluate in parallel (and shard) with
  // bit-identical output.
  const auto [begin, end] = exec.range(kernels.size());
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = begin; k < end; ++k) seeds.push_back(seed + 31 * k);
  const std::vector<apps::ExecutionProfile> profiles = apps::measure_kernels(
      std::span(kernels).subspan(begin, end - begin), samples, seeds);
  return common::parallel_map(profiles.size(), [&, base = begin](
                                                   std::size_t j) {
    common::Rng policy_rng(common::index_seed(seed, base + j));
    const apps::ExecutionProfile& profile = profiles[j];
    const std::size_t half = profile.samples.size() / 2;
    const std::span<const double> train(profile.samples.data(), half);
    const std::span<const double> holdout(profile.samples.data() + half,
                                          profile.samples.size() - half);
    const std::vector<double> train_vec(train.begin(), train.end());
    const stats::EmpiricalDistribution train_emp(train_vec);

    sched::HcTaskProfile hc;
    hc.acet = train_emp.mean();
    hc.sigma = train_emp.stddev();
    hc.wcet_pes = static_cast<double>(profile.wcet_pes);
    hc.period = 1.0;  // irrelevant here
    hc.samples = &train_vec;

    AssignmentComparison cmp;
    cmp.application = profile.name;
    cmp.acet = hc.acet;
    cmp.sigma = hc.sigma;
    cmp.representative =
        stats::ks_two_sample_test(train, holdout).same_distribution;

    std::vector<sched::WcetOptPolicyPtr> methods = {
        std::make_shared<sched::ChebyshevUniformPolicy>(3.0),  // bound 10%
        std::make_shared<sched::EmpiricalQuantilePolicy>(0.9),
        std::make_shared<sched::EvtPwcetPolicy>(0.9, 25),
    };
    // Extra methods ride after the standard roster; none of them draws
    // from policy_rng, so the three rows above keep their exact values.
    methods.insert(methods.end(), extra_methods.begin(), extra_methods.end());
    for (const auto& method : methods) {
      MethodScore score;
      score.method = method->name();
      score.wcet_opt = method->wcet_opt(hc, policy_rng);
      score.train_overrun = overrun_rate(train, score.wcet_opt);
      score.holdout_overrun = overrun_rate(holdout, score.wcet_opt);
      score.utilization_cost = score.wcet_opt / hc.acet;
      cmp.methods.push_back(std::move(score));
    }
    return cmp;
  });
}

common::Table render_assignment_methods(
    const std::vector<AssignmentComparison>& comparisons) {
  common::Table table({"Application", "method", "C^LO (cyc)",
                       "overrun (train)", "overrun (holdout)",
                       "C^LO / ACET", "KS train~holdout"});
  table.set_title(
      "Ablation A4: Chebyshev vs measurement-based C^LO assignment "
      "(target overrun 10%, scored on held-out data)");
  for (const AssignmentComparison& cmp : comparisons) {
    for (const MethodScore& m : cmp.methods) {
      table.add_row({cmp.application, m.method,
                     common::format_double(m.wcet_opt, 4),
                     common::format_percent(m.train_overrun),
                     common::format_percent(m.holdout_overrun),
                     common::format_double(m.utilization_cost, 3),
                     cmp.representative ? "pass" : "FAIL"});
    }
  }
  return table;
}

}  // namespace mcs::exp
