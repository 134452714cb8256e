// Simulator throughput benchmark (simulated jobs per wall-clock second)
// in three sections:
//
//  1. The fig6 workload: Chebyshev-assigned mixed-criticality sets over
//     the paper's utilization axis (0.5 .. 1.4), tracing off. This regime
//     has small ready sets and is bounded below by the per-job execution
//     time draw (a lognormal sample per release), so it measures the
//     engine's fixed per-job overhead.
//  2. Ready-set scaling: overloaded bounds (u = 2 .. 32) where dozens to
//     hundreds of jobs are simultaneously pending. This is the regime the
//     indexed ready set and the expiry heap exist for: the legacy
//     linear-scan engine degraded as O(ready set) per event.
//  3. Trace modes at u = 1.0: tracing off, bounded in-memory trace,
//     binary trace file, and both together — measuring what a full
//     event log costs per simulated job.
//
// Every configuration runs twice and FNV-hashes its SimMetrics; a hash
// mismatch fails the run (exit 1), so this doubles as a determinism
// smoke test for the simulator on any machine it is benchmarked on.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/chebyshev_wcet.hpp"
#include "mc/taskset.hpp"
#include "sched/edf_vd.hpp"
#include "sim/engine.hpp"
#include "taskgen/generator.hpp"

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
};

/// FNV-1a over the counters and busy/response accounting of one run.
void mix_metrics(Fnv& f, const mcs::sim::SimMetrics& m) {
  f.mix(m.hc_jobs_released);
  f.mix(m.hc_jobs_completed);
  f.mix(m.hc_jobs_overrun);
  f.mix(m.hc_deadline_misses);
  f.mix(m.lc_jobs_released);
  f.mix(m.lc_jobs_completed);
  f.mix(m.lc_jobs_dropped);
  f.mix(m.lc_deadline_misses);
  f.mix(m.mode_switches);
  f.mix(m.context_switches);
  f.mix(bits(m.busy_time));
  f.mix(bits(m.hi_mode_time));
  for (const mcs::sim::TaskSimStats& ts : m.per_task) {
    f.mix(ts.released);
    f.mix(ts.completed + ts.dropped + ts.pending_at_horizon);
    f.mix(bits(ts.total_response));
  }
}

/// One Chebyshev-assigned random set, as the fig6 experiment builds them.
mcs::mc::TaskSet make_set(std::uint64_t seed, double u_bound, double n) {
  mcs::taskgen::GeneratorConfig config;
  mcs::common::Rng rng(mcs::common::index_seed(991, seed));
  mcs::mc::TaskSet tasks = mcs::taskgen::generate_mixed(config, u_bound, rng);
  const std::vector<double> genes(
      tasks.count(mcs::mc::Criticality::kHigh), n);
  (void)mcs::core::apply_chebyshev_assignment(tasks, genes);
  return tasks;
}

struct WorkloadResult {
  std::uint64_t jobs = 0;    ///< released jobs across all sets
  std::uint64_t events = 0;  ///< trace events recorded (any sink)
  std::uint64_t hash = 0;    ///< FNV over every run's metrics
};

/// Simulates `sets` task sets at one utilization bound. `use_analysis_x`
/// runs the EDF-VD test per set and uses its x (the fig6 regime);
/// overload sets skip it (the test rejects them anyway).
WorkloadResult run_workload(double u_bound, std::size_t sets, double horizon,
                            bool use_analysis_x,
                            const mcs::sim::SimConfig& base) {
  WorkloadResult out;
  Fnv f;
  for (std::size_t s = 0; s < sets; ++s) {
    const mcs::mc::TaskSet tasks = make_set(s, u_bound, 3.0);
    if (tasks.size() == 0) continue;
    mcs::sim::SimConfig config = base;
    config.horizon = horizon;
    config.x = 1.0;
    if (use_analysis_x) {
      const mcs::sched::EdfVdResult vd = mcs::sched::edf_vd_test(tasks);
      if (vd.schedulable && vd.x > 0.0) config.x = vd.x;
    }
    config.seed = 1000 + s;
    const mcs::sim::SimResult r = mcs::sim::simulate(tasks, config);
    out.jobs += r.metrics.hc_jobs_released + r.metrics.lc_jobs_released;
    out.events += r.trace.total_recorded();
    mix_metrics(f, r.metrics);
  }
  out.hash = f.h;
  return out;
}

struct Timed {
  double seconds = 0.0;
  WorkloadResult result;
  bool identical = true;  ///< repeated runs hashed identically
};

/// Runs `work` `repeats` + 1 times (first run warms up and provides the
/// reference hash), keeping the best wall-clock time.
Timed time_best(std::uint64_t repeats,
                const std::function<WorkloadResult()>& work) {
  Timed best;
  WorkloadResult reference = work();  // warm-up + reference hash
  best.result = reference;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const WorkloadResult got = work();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best.seconds)
      best.seconds = elapsed.count();
    best.identical = best.identical && got.hash == reference.hash;
  }
  return best;
}

struct JsonRecord {
  std::string section;
  double u_bound = 0.0;
  std::string mode;  ///< trace mode ("off", "mem", "bin", "mem+bin")
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  bool identical = true;
};

std::vector<JsonRecord>& json_records() {
  static std::vector<JsonRecord> records;
  return records;
}

std::string render_json(bool identical) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"perf_sim\",\n"
      << "  \"all_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  const std::vector<JsonRecord>& records = json_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "    {\"section\": \"" << r.section << "\", \"u\": " << r.u_bound
        << ", \"mode\": \"" << r.mode << "\", \"jobs\": " << r.jobs
        << ", \"events\": " << r.events << ", \"seconds\": " << r.seconds
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", rate);
  return buf;
}

/// Fixed-point rendering (format_double prints significant digits, which
/// turns 1.0 into "1" and 16 into "2e+01" — wrong for axis labels).
std::string format_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sets = 40;
  std::uint64_t overload_sets = 10;
  std::uint64_t repeats = 3;
  double horizon = 50000.0;
  double overload_horizon = 20000.0;
  std::string json_path;
  std::string scratch_dir = "/tmp";
  mcs::common::Cli cli(
      "Simulator throughput benchmark: simulated jobs/sec on the fig6 "
      "workload, on overloaded ready-set-scaling workloads, and across "
      "trace modes, with a repeated-run determinism check");
  cli.add_u64("sets", &sets, "task sets per fig6 utilization point");
  cli.add_u64("overload-sets", &overload_sets,
              "task sets per overload point");
  cli.add_u64("repeats", &repeats,
              "timed repetitions per configuration (best kept)");
  cli.add_double("horizon", &horizon, "simulated ms per fig6 set");
  cli.add_double("overload-horizon", &overload_horizon,
                 "simulated ms per overload set");
  cli.add_string("json", &json_path,
                 "also write the results as JSON to this path (CI artifact)");
  cli.add_string("scratch", &scratch_dir,
                 "writable directory for binary trace files");
  if (!cli.parse(argc, argv)) return 1;
  if (repeats == 0) repeats = 1;
  bool identical = true;

  // Section 1: the fig6 workload (paper's u axis), tracing off.
  const std::vector<double> fig6_axis = {0.5, 0.6, 0.7, 0.8, 0.9,
                                         1.0, 1.1, 1.2, 1.3, 1.4};
  mcs::common::Table fig6_table(
      {"u bound", "jobs", "seconds (best)", "jobs/sec", "identical"});
  fig6_table.set_title("fig6 workload, tracing off (" +
                       std::to_string(sets) + " sets/point, horizon " +
                       format_fixed(horizon, 0) + " ms)");
  std::uint64_t fig6_jobs = 0;
  double fig6_seconds = 0.0;
  for (const double u : fig6_axis) {
    mcs::sim::SimConfig base;
    const Timed timed = time_best(repeats, [&] {
      return run_workload(u, sets, horizon, /*use_analysis_x=*/true, base);
    });
    identical &= timed.identical;
    fig6_jobs += timed.result.jobs;
    fig6_seconds += timed.seconds;
    const double rate =
        static_cast<double>(timed.result.jobs) / timed.seconds;
    fig6_table.add_row({format_fixed(u, 1),
                        std::to_string(timed.result.jobs),
                        mcs::common::format_double(timed.seconds, 4),
                        format_rate(rate),
                        timed.identical ? "yes" : "NO"});
    json_records().push_back({"fig6", u, "off", timed.result.jobs,
                              timed.result.events, timed.seconds, rate,
                              timed.identical});
  }
  fig6_table.add_row(
      {"all", std::to_string(fig6_jobs),
       mcs::common::format_double(fig6_seconds, 4),
       format_rate(static_cast<double>(fig6_jobs) / fig6_seconds), "-"});
  std::fputs(fig6_table.render().c_str(), stdout);

  // Section 2: ready-set scaling (overload). The legacy engine scanned
  // the whole ready set per event; the indexed engine should hold its
  // rate as the pending-job count grows.
  mcs::common::Table scaling_table(
      {"u bound", "jobs", "seconds (best)", "jobs/sec", "identical"});
  scaling_table.set_title(
      "ready-set scaling (overload), tracing off (" +
      std::to_string(overload_sets) + " sets/point, horizon " +
      format_fixed(overload_horizon, 0) + " ms)");
  for (const double u : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    mcs::sim::SimConfig base;
    const Timed timed = time_best(repeats, [&] {
      return run_workload(u, overload_sets, overload_horizon,
                          /*use_analysis_x=*/false, base);
    });
    identical &= timed.identical;
    const double rate =
        static_cast<double>(timed.result.jobs) / timed.seconds;
    scaling_table.add_row({format_fixed(u, 0),
                           std::to_string(timed.result.jobs),
                           mcs::common::format_double(timed.seconds, 4),
                           format_rate(rate),
                           timed.identical ? "yes" : "NO"});
    json_records().push_back({"ready_set_scaling", u, "off",
                              timed.result.jobs, timed.result.events,
                              timed.seconds, rate, timed.identical});
  }
  std::printf("\n%s", scaling_table.render().c_str());

  // Section 3: trace modes at u = 1.0.
  // The events column counts in-memory trace records; binary-only mode
  // streams the same events to disk without storing them, so it shows 0.
  mcs::common::Table trace_table({"trace mode", "jobs", "mem events",
                                  "seconds (best)", "jobs/sec",
                                  "identical"});
  trace_table.set_title("trace modes, fig6 u = 1.0 (" +
                        std::to_string(sets) + " sets, horizon " +
                        format_fixed(horizon, 0) + " ms)");
  struct TraceMode {
    const char* name;
    std::size_t capacity;
    bool binary;
  };
  for (const TraceMode mode :
       {TraceMode{"off", 0, false}, TraceMode{"mem", std::size_t{1} << 20, false},
        TraceMode{"bin", 0, true},
        TraceMode{"mem+bin", std::size_t{1} << 20, true}}) {
    mcs::sim::SimConfig base;
    base.trace_capacity = mode.capacity;
    if (mode.binary)
      base.trace_binary_path = scratch_dir + "/perf_sim_trace.bin";
    const Timed timed = time_best(repeats, [&] {
      return run_workload(1.0, sets, horizon, /*use_analysis_x=*/true,
                          base);
    });
    identical &= timed.identical;
    const double rate =
        static_cast<double>(timed.result.jobs) / timed.seconds;
    trace_table.add_row({mode.name, std::to_string(timed.result.jobs),
                         std::to_string(timed.result.events),
                         mcs::common::format_double(timed.seconds, 4),
                         format_rate(rate),
                         timed.identical ? "yes" : "NO"});
    json_records().push_back({"trace_modes", 1.0, mode.name,
                              timed.result.jobs, timed.result.events,
                              timed.seconds, rate, timed.identical});
    if (mode.binary)
      std::remove((scratch_dir + "/perf_sim_trace.bin").c_str());
  }
  std::printf("\n%s", trace_table.render().c_str());

  std::printf("\nall runs deterministic: %s\n", identical ? "yes" : "NO");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << render_json(identical);
    if (!out) {
      std::fprintf(stderr, "perf_sim: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
