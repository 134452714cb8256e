// Reproduces TABLE I: "Comparison between ACET and WCET of different
// applications" — the measurement campaign over the seven applications and
// the percentage of samples that overrun when C^LO is set to ACET or a
// fraction of WCET^pes.
//
// Paper protocol: 20000 instances per application, WCET^pes from OTAWA.
// Defaults here are reduced for a quick run; use --samples=20000
// --large-qsort=10000 for paper scale.
#include <cstdio>
#include <span>
#include <vector>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "exp/table1.hpp"

int main(int argc, char** argv) {
  std::uint64_t samples = 2000;
  std::uint64_t large_qsort = 2000;
  std::uint64_t seed = 1;
  bool zoo = false;
  mcs::common::Cli cli(
      "TABLE I reproduction: ACET/WCET^pes/sigma per application and "
      "overrun percentages per optimistic-WCET policy");
  cli.add_u64("samples", &samples, "executions per application (paper: 20000)");
  cli.add_u64("large-qsort", &large_qsort,
              "largest qsort input size (paper: 10000)");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_flag("zoo", &zoo,
               "append the library's extra kernels (fft, matmul) as "
               "additional rows beyond the paper's seven");
  cli.add_jobs();
  if (!cli.parse(argc, argv)) return 1;

  auto rows = mcs::exp::run_table1(samples, seed, large_qsort);
  if (zoo) {
    // The extra kernels follow the paper's seven, seeded by their index in
    // the zoo, and measure as one flat campaign.
    const auto all = mcs::apps::all_kernels(large_qsort);
    const std::span<const mcs::apps::KernelPtr> extra =
        std::span(all).subspan(7);
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 7; k < all.size(); ++k) seeds.push_back(seed + k);
    for (const mcs::apps::ExecutionProfile& profile :
         mcs::apps::measure_kernels(extra, samples, seeds))
      rows.push_back(mcs::exp::table1_row(profile));
  }
  const mcs::common::Table table = mcs::exp::render_table1(rows);
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nKey observations (paper Section IV-A):");
  std::printf("  - overrun at ACET is ~50%% for every application\n");
  std::printf("  - a fixed WCET^pes fraction behaves inconsistently across "
              "applications\n");
  std::printf("  - the WCET^pes/ACET gap grows with the qsort input size: "
              "%.1fx -> %.1fx -> %.1fx\n",
              rows[0].wcet_pes / rows[0].acet, rows[1].wcet_pes / rows[1].acet,
              rows[2].wcet_pes / rows[2].acet);

  std::puts("\nCSV:");
  std::fputs(table.render_csv().c_str(), stdout);
  return 0;
}
