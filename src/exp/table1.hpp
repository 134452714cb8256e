// TABLE I driver: ACET / pessimistic WCET / sigma per application, and the
// percentage of samples that overrun when C^LO is set to ACET or to
// WCET^pes / {4, 8, 16, 32, 64}.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace mcs::apps {
struct ExecutionProfile;
}  // namespace mcs::apps

namespace mcs::exp {

/// The WCET^pes divisors of Table I's right-hand columns.
inline constexpr std::array<double, 5> kTable1Divisors = {4, 8, 16, 32, 64};

/// One Table I row.
struct Table1Row {
  std::string application;
  double acet = 0.0;
  double wcet_pes = 0.0;
  double sigma = 0.0;
  double overrun_at_acet = 0.0;  ///< fraction in [0,1]
  std::array<double, kTable1Divisors.size()> overrun_at_fraction{};
};

/// The Table I row of one measured campaign: its moments, WCET^pes and
/// overrun rates at ACET and at each WCET^pes fraction.
[[nodiscard]] Table1Row table1_row(const apps::ExecutionProfile& profile);

/// Runs the measurement campaign (`samples` runs per application, paper:
/// 20000) and the static analysis for every Table I application.
/// `large_qsort` sets the biggest qsort input size (paper: 10000).
[[nodiscard]] std::vector<Table1Row> run_table1(std::size_t samples,
                                                std::uint64_t seed,
                                                std::size_t large_qsort);

/// Renders the rows in the paper's layout.
[[nodiscard]] common::Table render_table1(const std::vector<Table1Row>& rows);

}  // namespace mcs::exp
