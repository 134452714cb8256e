// The three benchmark workloads and the correctness checks each applies
// to its outputs. The checks are exposed so the self-test can feed them
// deliberately corrupted results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/measurement.hpp"
#include "core/comparison.hpp"
#include "exp/campaign.hpp"
#include "exp/table1.hpp"
#include "exp/table2.hpp"
#include "report.hpp"

namespace perfbench {

// ---- paper_measure --------------------------------------------------------

/// C^LO assigned by one roster policy to one Table II kernel.
struct Assignment {
  std::string kernel;
  std::string policy;
  double acet = 0.0;
  double sigma = 0.0;
  double wcet_pes = 0.0;
  double wcet_lo = 0.0;
};

/// Table I rows: overrun fractions in [0, 1] and, for every threshold t
/// above ACET, at or below Cantelli's sigma^2 / (sigma^2 + (t - ACET)^2).
[[nodiscard]] CheckError check_table1(const std::vector<mcs::exp::Table1Row>& rows);
/// Table II: for n = 1..4 every kernel's exceedance at ACET + n*sigma is at
/// or below 1/(1+n^2).
[[nodiscard]] CheckError check_table2(const mcs::exp::Table2Data& data);
/// One measured campaign: no sample above WCET^pes, and the n = 1..4
/// exceedance bound on its own samples.
[[nodiscard]] CheckError check_profile(const mcs::apps::ExecutionProfile& profile);
/// Roster assignments: C^LO in (0, WCET^pes], the analytic policies' closed
/// forms, and the unimodal bounds' documented Cantelli fallback.
[[nodiscard]] CheckError check_assignments(const std::vector<Assignment>& rows);

[[nodiscard]] Result run_paper_measure(const Options& options, Tracer& tracer);

// ---- design_sweep ---------------------------------------------------------

/// One utilization point of the fig5-style stage through compare_policies:
/// its scores and the GA winner of every replication.
struct SweepPoint {
  double u = 0.0;
  std::uint64_t seed = 0;
  std::vector<mcs::core::PolicyScore> scores;
  std::vector<std::vector<double>> winners;
};

/// The point's compare_policies scores must be bit-equal to the swept
/// point's (`swept`, from exp::run_policy_sweep), and each GA winner's
/// breakdown bit-equal to core::evaluate_multipliers at the winner's n: the
/// winners' re-evaluated breakdowns, reduced in replication order, must
/// reproduce the swept "proposed(GA)" score exactly.
[[nodiscard]] CheckError check_sweep_point(
    const SweepPoint& point, const std::vector<mcs::core::PolicyScore>& swept,
    std::size_t tasksets);
/// Every campaign cell whose sets were all admitted has no HC deadline miss.
[[nodiscard]] CheckError check_cells(
    const std::vector<mcs::exp::SimCampaignCell>& cells);

[[nodiscard]] Result run_design_sweep(const Options& options, Tracer& tracer);

// ---- serve_churn ----------------------------------------------------------

/// One request of the serve stream with its due time (seconds after the
/// start of its step) and the reply lines the reference replay produced.
struct Request {
  std::string line;
  const char* verb = "";             ///< a string literal: "admit", ...
  double due_s = 0.0;
  std::vector<std::string> replies;  ///< empty for silent requests
};

/// Client-side outcome of one request.
struct Outcome {
  double latency_us = -1.0;  ///< reply completion minus due time
  bool replied = false;
  bool error = false;        ///< err reply, missing reply or broken link
};

/// Everything the open-loop client observed.
struct ClientRun {
  std::vector<Outcome> outcomes;         ///< indexed like the requests
  std::vector<std::string> transcript;   ///< reply lines in arrival order
  std::vector<double> lag_us;            ///< send time minus due time
  bool connection_error = false;
  std::string error;
};

/// Sends `requests[begin, end)` over the connected non-blocking socket
/// `fd` at their due times (relative to `t0_ns`, offsets in seconds), each
/// at its due time whether or not earlier replies arrived, and reads replies
/// until every non-silent request is answered or `drain_s` passes after
/// the last due time. Latency is timed from the due time. `due_scale`
/// compresses due times (0 sends everything as fast as the socket takes it).
void run_open_loop(int fd, const std::vector<Request>& requests,
                   std::size_t begin, std::size_t end, std::int64_t t0_ns,
                   double due_scale, double drain_s, ClientRun* run);

/// The TCP transcript must be byte-identical to the in-process replay.
[[nodiscard]] CheckError check_transcript(const std::vector<Request>& requests,
                                          const std::vector<std::string>& got);

[[nodiscard]] Result run_serve_churn(const Options& options, Tracer& tracer);

}  // namespace perfbench
