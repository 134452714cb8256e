#include "apps/measurement.hpp"

#include <stdexcept>
#include <utility>

#include "common/stats_accumulator.hpp"
#include "common/thread_pool.hpp"
#include "wcet/analyzer.hpp"

namespace mcs::apps {

double ExecutionProfile::overrun_rate(double threshold) const {
  if (samples.empty()) return 0.0;
  std::size_t over = 0;
  for (const double s : samples)
    if (s > threshold) ++over;
  return static_cast<double>(over) / static_cast<double>(samples.size());
}

double ExecutionProfile::pessimism_ratio() const {
  if (acet <= 0.0) return 0.0;
  return static_cast<double>(wcet_pes) / acet;
}

std::vector<ExecutionProfile> measure_kernels(
    std::span<const KernelPtr> kernels, std::size_t samples,
    std::span<const std::uint64_t> seeds) {
  if (samples == 0)
    throw std::invalid_argument("measure_kernels: samples must be >= 1");
  if (seeds.size() != kernels.size())
    throw std::invalid_argument("measure_kernels: one seed per kernel");
  const std::size_t count = kernels.size();

  // One flat loop over every (kernel, sample) pair, kernel-major, one item
  // per dispatch: items are 0.1-1000 us of kernel work, so grain 1 keeps
  // every worker busy to the end and the tail waits for at most one
  // sample (it measured faster than a sample-major auto grain; see
  // bench/RESULTS_measure.md). Item (k, i) draws only from
  // Rng(index_seed(seeds[k], i)) and writes only its own slot, so
  // dispatch order never reaches a result.
  std::vector<std::vector<double>> cycles(count,
                                          std::vector<double>(samples));
  common::parallel_for_chunked(count * samples, 1, [&](std::size_t item) {
    const std::size_t k = item / samples;
    const std::size_t i = item % samples;
    common::Rng rng(common::index_seed(seeds[k], i));
    cycles[k][i] = static_cast<double>(kernels[k]->run_once(rng));
  });

  // Per kernel: Welford over the samples in index order (exact and
  // serial within the kernel), then the static bound and its check.
  return common::parallel_map(count, [&](std::size_t k) {
    const Kernel& kernel = *kernels[k];
    ExecutionProfile profile;
    profile.name = kernel.name();
    profile.samples = std::move(cycles[k]);
    common::StatsAccumulator acc;
    for (const double value : profile.samples) acc.add(value);
    profile.acet = acc.mean();
    profile.sigma = acc.stddev();
    profile.observed_max = acc.max();

    const wcet::AnalysisResult analysis =
        wcet::analyze_program(*kernel.worst_case_program());
    profile.wcet_pes = analysis.wcet();
    if (static_cast<double>(profile.wcet_pes) < profile.observed_max)
      throw std::logic_error("measure_kernels: static WCET below an observed "
                             "execution time for " + profile.name +
                             " — worst-case program is not conservative");
    return profile;
  });
}

ExecutionProfile measure_kernel(const Kernel& kernel, std::size_t samples,
                                std::uint64_t seed) {
  // Non-owning handle: the aliasing constructor shares no control block.
  const KernelPtr handle(KernelPtr(), &kernel);
  return std::move(measure_kernels({&handle, 1}, samples, {&seed, 1}).front());
}

}  // namespace mcs::apps
