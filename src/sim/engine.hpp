// Preemptive uniprocessor EDF-VD simulator implementing the paper's system
// operational model (Section III):
//
//  * The system starts in LO mode; HC jobs are dispatched by *virtual*
//    deadlines (release + x * period, x from the EDF-VD analysis), LC jobs
//    by their real deadlines.
//  * When an HC job executes beyond its C^LO without completing, the
//    system switches to HI mode: LC jobs are dropped entirely (drop-all,
//    Baruah [1]) or continued/admitted with a degraded budget (Liu [2]);
//    HC jobs revert to their real deadlines and may run to C^HI.
//  * The system switches back to LO mode at the first instant with no
//    ready HC job.
//
// Job execution times are drawn from each task's execution-time
// distribution (clamped to C^HI for HC tasks — certification guarantees no
// job exceeds the pessimistic bound), so the simulator empirically
// validates the analytic mode-switch probabilities of Eq. 10.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "mc/taskset.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {

/// What happens to LC work when the system is in HI mode.
enum class LcPolicy {
  kDropAll,     ///< Baruah [1]: drop ready LC jobs, reject LC releases
  kDegradeHalf, ///< Liu [2]: LC jobs continue/admit with 50% budgets
  kServer,      ///< budget server ([15]/[16]-style): LC work shares a
                ///< replenishing budget of `server_capacity` per
                ///< `server_period` while in HI mode
};

/// When the system returns from HI to LO mode.
enum class BackSwitchPolicy {
  kNoReadyHc,   ///< the paper (Section III): first instant with no ready
                ///< HC job
  kIdleInstant, ///< conservative variant ([22]-style): first instant the
                ///< processor is completely idle
};

/// Simulation parameters.
struct SimConfig {
  common::Millis horizon = 100'000.0;  ///< simulated time (ms)
  double x = 1.0;                      ///< EDF-VD virtual-deadline factor
  LcPolicy lc_policy = LcPolicy::kDropAll;
  BackSwitchPolicy back_switch = BackSwitchPolicy::kNoReadyHc;
  std::uint64_t seed = 1;
  /// In-memory trace bound; 0 = tracing off. With tracing fully off (no
  /// binary path either) the engine skips event bookkeeping entirely, so
  /// Trace::total_recorded() is 0 rather than the would-be event count.
  std::size_t trace_capacity = 0;
  /// When non-empty, stream every trace event (independent of
  /// trace_capacity) to this file in the compact binary format decoded by
  /// tools/mcs_trace, written on the simulating thread (trace_sink.hpp).
  /// simulate_partitioned() appends ".core<i>" per core.
  std::string trace_binary_path;
  /// Also record kDispatch (every scheduler pick, with the deadline the
  /// EDF comparison actually used) and kBudgetRestore (every degraded LC
  /// budget restored at the HI->LO back-switch) events. Off by default —
  /// dispatch events are voluminous and exist for the invariant-oracle
  /// tests, which re-derive the expected values from the task set.
  bool trace_dispatch = false;
  /// Fallback LC/no-distribution execution model: actual time ~ U[lo,hi]
  /// fraction of the budget.
  double exec_fraction_lo = 0.4;
  double exec_fraction_hi = 1.0;
  /// Scheduling overheads (ms), charged as extra demand: every dispatch
  /// of a different job costs `context_switch_ms`; every LO->HI or HI->LO
  /// transition costs `mode_switch_ms`. Defaults are the paper's
  /// (implicit) zero-overhead model.
  double context_switch_ms = 0.0;
  double mode_switch_ms = 0.0;
  /// LcPolicy::kServer parameters: LC demand served in HI mode is capped
  /// at `server_capacity` ms per `server_period` ms window. The server's
  /// HI-mode utilization (capacity/period) must be budgeted into the
  /// schedulability analysis by the caller (treat it as extra U_HC^HI).
  double server_capacity = 5.0;
  double server_period = 100.0;
  /// Sporadic arrivals: each release is delayed by U(0, jitter * period)
  /// past its minimal inter-arrival instant (0 = strictly periodic, the
  /// paper's model). The periodic analyses remain sufficient for sporadic
  /// arrivals, so schedulable sets must stay miss-free under any jitter.
  double release_jitter = 0.0;
  /// When > 0, keep a per-task reservoir of that many response times and
  /// report approximate p95/p99 in TaskSimStats.
  std::size_t response_reservoir = 0;
};

/// Result of one run: aggregate metrics plus the (optional) trace.
struct SimResult {
  SimMetrics metrics;
  Trace trace;
};

/// Simulates `tasks` under the paper's operational model. Requires a valid
/// task set and horizon > 0. Jobs are released synchronously at t = 0 and
/// strictly periodically afterwards (plus optional sporadic jitter).
[[nodiscard]] SimResult simulate(const mc::TaskSet& tasks,
                                 const SimConfig& config);

/// Result of a partitioned multicore simulation.
struct MulticoreSimResult {
  std::vector<SimResult> cores;  ///< one run per core
  /// Aggregate counters over all cores. `combined.per_task` concatenates
  /// the per-core task stats in core order (skipping empty cores), so
  /// response/max-response data survives aggregation; its indices follow
  /// that concatenated order, not any original pre-partition numbering.
  SimMetrics combined;
};

/// Simulates every core of a partitioned system independently (partitioned
/// scheduling has no cross-core interference). The virtual-deadline factor
/// is taken per core from `xs` (one entry per task set); each core's seed
/// is derived from config.seed so runs stay deterministic.
[[nodiscard]] MulticoreSimResult simulate_partitioned(
    const std::vector<mc::TaskSet>& cores, const std::vector<double>& xs,
    const SimConfig& config);

}  // namespace mcs::sim
