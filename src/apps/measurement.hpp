// Measurement campaigns: run a kernel m times on randomized inputs and
// summarize its execution-time distribution.
//
// This reproduces the paper's data-collection protocol (Section IV-A /
// Section V-A: "we execute five applications with 20000 different inputs
// with MEET to achieve their execution times") and pairs the dynamic
// samples with the static analyzer's WCET^pes for the same kernel.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/kernel.hpp"
#include "common/units.hpp"
#include "stats/empirical.hpp"

namespace mcs::apps {

/// Execution-time characterization of one application.
struct ExecutionProfile {
  std::string name;                    ///< kernel name (Table I row label)
  std::vector<double> samples;         ///< cycle counts, one per run
  double acet = 0.0;                   ///< sample mean (Eq. 3)
  double sigma = 0.0;                  ///< population stddev (Eq. 4)
  double observed_max = 0.0;           ///< high-water mark over the campaign
  common::Cycles wcet_pes = 0;         ///< static bound (OTAWA substitute)

  /// Empirical distribution over the campaign's samples.
  [[nodiscard]] stats::EmpiricalDistribution empirical() const {
    return stats::EmpiricalDistribution(samples);
  }

  /// Fraction of samples strictly above `threshold` cycles — the Table I
  /// "% of samples that overruns" metric.
  [[nodiscard]] double overrun_rate(double threshold) const;

  /// WCET^pes / ACET gap factor (paper's motivation: 8x-64x).
  [[nodiscard]] double pessimism_ratio() const;
};

/// Runs `samples` randomized executions of every kernel in `kernels`,
/// computes each kernel's moments and static WCET, and checks that the
/// static bound dominates every observation. Profile k is kernel k's
/// campaign under seed `seeds[k]`. Requires samples >= 1 and
/// seeds.size() == kernels.size(); an empty kernel list yields an empty
/// result.
///
/// Sample i of kernel k draws from a counter-based stream seeded by
/// common::index_seed(seeds[k], i), so each campaign is deterministic in
/// its seed alone and independent of which other kernels share the call.
/// Every (kernel, sample) pair is one item of a single chunked parallel
/// loop, so a slow kernel's samples spread over all workers instead of
/// serializing on one; the moments (reduced serially in sample order),
/// the static analysis and the WCET check then run per kernel in a
/// parallel map. The result is bit-identical at every --jobs count. This
/// stream scheme replaced the original single sequential Rng; golden
/// ACET/sigma tables were re-recorded once for that migration (see
/// tests/test_measurement_golden and DESIGN.md's threading-model notes).
[[nodiscard]] std::vector<ExecutionProfile> measure_kernels(
    std::span<const KernelPtr> kernels, std::size_t samples,
    std::span<const std::uint64_t> seeds);

/// One kernel's campaign: measure_kernels over the single pair
/// (kernel, seed). Requires samples >= 1.
[[nodiscard]] ExecutionProfile measure_kernel(const Kernel& kernel,
                                              std::size_t samples,
                                              std::uint64_t seed);

}  // namespace mcs::apps
