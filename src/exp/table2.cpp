#include "exp/table2.hpp"

#include <span>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "stats/chebyshev.hpp"

namespace mcs::exp {

Table2Data run_table2(std::size_t samples, std::uint64_t seed,
                      const common::Executor& exec) {
  Table2Data data;
  const auto kernels = apps::table2_kernels();
  // Kernel campaigns are independently seeded (seed + 100 + k) and
  // measured by one flat (kernel, sample) loop; names and empiricals are
  // collected in kernel order. Table II shards column-wise: a sharded
  // executor measures only its slice of the kernel list, and the global
  // index k keeps each campaign's seed shard-invariant.
  const auto [begin, end] = exec.range(kernels.size());
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = begin; k < end; ++k) seeds.push_back(seed + 100 + k);
  const std::vector<apps::ExecutionProfile> profiles = apps::measure_kernels(
      std::span(kernels).subspan(begin, end - begin), samples, seeds);
  std::vector<stats::EmpiricalDistribution> empiricals;
  for (const apps::ExecutionProfile& profile : profiles) {
    data.applications.push_back(profile.name);
    empiricals.push_back(profile.empirical());
  }
  for (int n = 0; n <= 4; ++n) {
    Table2Row row;
    row.n = n;
    row.analysis_bound = stats::chebyshev_exceedance_bound(n);
    for (const auto& emp : empiricals)
      row.measured.push_back(emp.exceedance_at_n(n));
    data.rows.push_back(std::move(row));
  }
  return data;
}

common::Table render_table2(const Table2Data& data) {
  std::vector<std::string> headers = {"n", "Analysis"};
  headers.insert(headers.end(), data.applications.begin(),
                 data.applications.end());
  common::Table table(std::move(headers));
  table.set_title("TABLE II: The effect of n on task overrunning");
  for (const Table2Row& row : data.rows) {
    std::vector<std::string> cells = {
        "n=" + std::to_string(row.n),
        common::format_percent(row.analysis_bound)};
    for (const double m : row.measured)
      cells.push_back(common::format_percent(m));
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace mcs::exp
