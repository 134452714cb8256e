#include "exp/fig1.hpp"

#include <sstream>
#include <stdexcept>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/table.hpp"

namespace mcs::exp {

Fig1Data run_fig1(const std::string& application, std::size_t samples,
                  std::size_t bins, std::uint64_t seed) {
  const auto kernels = apps::table1_kernels(1000);
  for (const auto& kernel : kernels) {
    if (kernel->name() != application) continue;
    // Single-kernel figure: measure_kernel spreads the samples over the
    // pool through counter-based per-sample streams (bit-identical at any
    // --jobs).
    const apps::ExecutionProfile profile =
        apps::measure_kernel(*kernel, samples, seed);
    Fig1Data data{application,
                  common::Histogram::from_samples(profile.samples, bins),
                  profile.acet,
                  profile.sigma,
                  profile.observed_max,
                  static_cast<double>(profile.wcet_pes)};
    return data;
  }
  throw std::invalid_argument("run_fig1: unknown application " + application);
}

std::string render_fig1(const Fig1Data& data) {
  std::ostringstream out;
  out << "Fig. 1: execution time distribution for '" << data.application
      << "'\n";
  out << data.histogram.render_ascii(60);
  out << "ACET = " << common::format_double(data.acet, 4)
      << " cycles, sigma = " << common::format_double(data.sigma, 4)
      << " cycles\n";
  out << "observed max = " << common::format_double(data.observed_max, 4)
      << " cycles\n";
  out << "WCET^pes (static) = " << common::format_double(data.wcet_pes, 4)
      << " cycles  ->  gap WCET/ACET = "
      << common::format_double(data.gap(), 3) << "x\n";
  return out.str();
}

}  // namespace mcs::exp
