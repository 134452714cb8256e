// Streamed-aggregate simulation campaign: many task sets per utilization
// point, reduced on the fly into one SimMetricsAccumulator per point.
//
// This is the driver behind `mcs-cli campaign` and the ROADMAP's
// million-sim item: the result is O(points) regardless of how many sets
// each point simulates, so a `--shard` run ships one CSV row
// per owned point instead of per-set metric dumps. Set s of point p is
// seeded by index_seed(seed, global set index), so every (backend, shard,
// jobs) combination reproduces the same bits; block accumulators are
// merged in index order to keep the Welford folds deterministic too.
#pragma once

#include <cstdint>
#include <vector>

#include "common/executor.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/engine.hpp"

namespace mcs::exp {

/// One campaign: a utilization axis, a fixed Chebyshev multiplier, and
/// the simulator configuration shared by every run.
struct SimCampaignConfig {
  std::vector<double> u_values;     ///< utilization axis (one cell each)
  std::size_t sets_per_point = 1000;
  double n = 3.0;                   ///< uniform Chebyshev multiplier
  std::uint64_t seed = 991;         ///< index_seed stream key
  sim::SimConfig sim;               ///< horizon / policy / jitter / ...
  /// Sets folded per block accumulator. Blocks are the parallel grain
  /// inside a point and the merge order is block index, so this value
  /// changes scheduling but never the result bits.
  std::size_t block = 4096;
};

/// The streamed reduction of one utilization point.
struct SimCampaignCell {
  double u_bound = 0.0;
  std::uint64_t generated = 0;  ///< non-empty sets simulated
  std::uint64_t admitted = 0;   ///< sets the EDF-VD test accepts
  sim::SimMetricsAccumulator agg;
};

/// Runs the campaign over the executor's slice of `cfg.u_values` (the
/// whole axis by default; a shard's contiguous slice under `--shard`).
/// Admitted sets simulate with the analysis x, rejected ones with x = 1
/// (they are simulated anyway — the campaign measures behaviour, not the
/// test), and every run folds into the point's accumulator.
[[nodiscard]] std::vector<SimCampaignCell> run_sim_campaign(
    const SimCampaignConfig& cfg, const common::Executor& exec = {});

/// One row per cell; NaN statistics (e.g. the stddev of a single-set
/// point) render as empty cells in both the table and its CSV block.
[[nodiscard]] common::Table render_sim_campaign(
    const std::vector<SimCampaignCell>& cells);

}  // namespace mcs::exp
