#include "exp/table1.hpp"

#include "apps/measurement.hpp"
#include "apps/registry.hpp"

namespace mcs::exp {

Table1Row table1_row(const apps::ExecutionProfile& profile) {
  Table1Row row;
  row.application = profile.name;
  row.acet = profile.acet;
  row.wcet_pes = static_cast<double>(profile.wcet_pes);
  row.sigma = profile.sigma;
  row.overrun_at_acet = profile.overrun_rate(profile.acet);
  for (std::size_t d = 0; d < kTable1Divisors.size(); ++d)
    row.overrun_at_fraction[d] =
        profile.overrun_rate(row.wcet_pes / kTable1Divisors[d]);
  return row;
}

std::vector<Table1Row> run_table1(std::size_t samples, std::uint64_t seed,
                                  std::size_t large_qsort) {
  std::vector<Table1Row> rows;
  const auto kernels = apps::table1_kernels(large_qsort);
  // Kernel k's campaign is seeded seed + k. measure_kernels runs every
  // (kernel, sample) pair as one item of a single parallel loop, so the
  // qsort-10000 samples spread over all workers; rows are built in kernel
  // order afterwards.
  std::vector<std::uint64_t> seeds(kernels.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) seeds[k] = seed + k;
  const std::vector<apps::ExecutionProfile> profiles =
      apps::measure_kernels(kernels, samples, seeds);
  for (const apps::ExecutionProfile& profile : profiles)
    rows.push_back(table1_row(profile));
  return rows;
}

common::Table render_table1(const std::vector<Table1Row>& rows) {
  std::vector<std::string> headers = {"Application", "ACET (cyc)",
                                      "WCET^pes (cyc)", "Sigma (cyc)",
                                      "@ACET"};
  for (const double d : kTable1Divisors)
    headers.push_back("@pes/" + common::format_double(d, 3));
  common::Table table(std::move(headers));
  table.set_title(
      "TABLE I: Comparison between ACET and WCET of different applications "
      "(% of samples that overrun)");
  for (const Table1Row& row : rows) {
    std::vector<std::string> cells = {
        row.application, common::format_double(row.acet, 3),
        common::format_double(row.wcet_pes, 3),
        common::format_double(row.sigma, 3),
        common::format_percent(row.overrun_at_acet)};
    for (const double frac : row.overrun_at_fraction)
      cells.push_back(common::format_percent(frac));
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace mcs::exp
