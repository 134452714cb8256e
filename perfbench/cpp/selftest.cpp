// Self-test of the benchmark: each workload's correctness check accepts
// real outputs and trips on deliberately corrupted ones; the open-loop
// client charges a server stall to the requests due during it; the seed
// changes the inputs but not the set of metric names.
//
//   perfbench_selftest --server PATH --out-dir DIR
#include <sys/socket.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "apps/registry.hpp"
#include "common/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_paper_measure_checks() {
  std::vector<mcs::exp::Table1Row> table1 = mcs::exp::run_table1(40, 3, 1000);
  mcs::exp::Table2Data table2 = mcs::exp::run_table2(40, 3);
  expect(!check_table1(table1), "paper_measure: real Table I passes");
  expect(!check_table2(table2), "paper_measure: real Table II passes");
  table1[2].overrun_at_fraction[0] = 1.0;
  expect(check_table1(table1).has_value(),
         "paper_measure: Table I overrun above Cantelli's bound trips");
  table2.rows[2].measured[1] = 0.5;  // n = 2 allows 1/5
  expect(check_table2(table2).has_value(),
         "paper_measure: Table II exceedance above 1/(1+n^2) trips");

  mcs::apps::ExecutionProfile profile =
      mcs::apps::measure_kernel(*mcs::apps::table2_kernels()[0], 200, 5);
  expect(!check_profile(profile), "paper_measure: real campaign passes");
  profile.samples[7] = static_cast<double>(profile.wcet_pes) + 1.0;
  expect(check_profile(profile).has_value(),
         "paper_measure: a sample above WCET^pes trips");

  std::vector<Assignment> rows = {
      {"k", "cantelli(p=0.1)", 10.0, 2.0, 100.0, 16.0},
      {"k", "vp(p=0.1)", 10.0, 2.0, 100.0, 16.0},
      {"k", "chebyshev(n=3)", 10.0, 2.0, 100.0, 16.0},
      {"k", "ACET", 10.0, 2.0, 100.0, 10.0}};
  expect(!check_assignments(rows), "paper_measure: consistent roster passes");
  rows[1].wcet_lo = 15.0;
  expect(check_assignments(rows).has_value(),
         "paper_measure: VP not falling back to Cantelli trips");
  rows[1].wcet_lo = 16.0;
  rows[3].wcet_lo = 120.0;
  expect(check_assignments(rows).has_value(),
         "paper_measure: C^LO above WCET^pes trips");
}

void test_design_sweep_checks() {
  mcs::core::OptimizerConfig optimizer;
  optimizer.ga.population_size = 12;
  optimizer.ga.generations = 6;
  SweepPoint point;
  point.u = 0.5;
  point.seed = 42;
  point.scores = mcs::core::compare_policies(point.u, 4, point.seed, optimizer,
                                             {}, nullptr, &point.winners);
  const std::vector<mcs::core::PolicyScore> swept = point.scores;
  expect(!check_sweep_point(point, swept, 4),
         "design_sweep: real GA winners pass");
  std::vector<mcs::core::PolicyScore> corrupted = swept;
  corrupted.front().p_ms += 1e-9;
  expect(check_sweep_point(point, corrupted, 4).has_value(),
         "design_sweep: a corrupted swept score trips");
  point.winners[1][0] += 0.5;
  expect(check_sweep_point(point, swept, 4).has_value(),
         "design_sweep: a corrupted GA winner trips");

  mcs::exp::SimCampaignConfig cfg;
  cfg.u_values = {0.5};
  cfg.sets_per_point = 8;
  cfg.sim.horizon = 5000.0;
  std::vector<mcs::exp::SimCampaignCell> cells = mcs::exp::run_sim_campaign(cfg);
  expect(!check_cells(cells), "design_sweep: real campaign cells pass");
  cells[0].admitted = cells[0].generated;
  cells[0].agg.hc_deadline_misses = 1;
  expect(check_cells(cells).has_value(),
         "design_sweep: an HC miss in an all-admitted cell trips");
}

void test_transcript_check() {
  std::vector<Request> requests(3);
  requests[0].line = "admit name=a";
  requests[0].replies = {"ok admit a"};
  requests[1].line = "record name=a time=1";
  requests[2].line = "tick";
  requests[2].replies = {"reopt a", "ok tick"};
  const std::vector<std::string> good = {"ok admit a", "reopt a", "ok tick"};
  expect(!check_transcript(requests, good), "serve_churn: identical transcript passes");
  std::vector<std::string> bad = good;
  bad[1] = "reopt b";
  expect(check_transcript(requests, bad).has_value(),
         "serve_churn: a changed reply line trips");
  bad = {"ok admit a", "ok tick"};
  expect(check_transcript(requests, bad).has_value(),
         "serve_churn: a missing reply line trips");
  bad = good;
  bad.push_back("ok extra");
  expect(check_transcript(requests, bad).has_value(),
         "serve_churn: an extra reply line trips");
}

/// A line server on a socketpair that answers "ok" per line and stalls
/// once, for kStallMs, before answering line kStallAt.
void test_stall_is_charged() {
  constexpr std::size_t kRequests = 400;
  constexpr double kRate = 2000.0;
  constexpr std::size_t kStallAt = 100;  // due at 50 ms
  constexpr int kStallMs = 60;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    expect(false, "stall: socketpair");
    return;
  }
  std::int64_t stall_start = 0;
  std::int64_t stall_end = 0;
  std::thread server([&] {
    std::string in;
    char buf[4096];
    std::size_t lines = 0;
    for (;;) {
      const ssize_t n = ::read(fds[1], buf, sizeof buf);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = in.find('\n')) != std::string::npos) {
        in.erase(0, pos + 1);
        if (lines++ == kStallAt) {
          stall_start = now_ns();
          std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
          stall_end = now_ns();
        }
        if (::write(fds[1], "ok\n", 3) != 3) return;
      }
    }
  });
  std::vector<Request> requests(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests[i].line = "ping";
    requests[i].replies = {"ok"};
    requests[i].due_s = static_cast<double>(i) / kRate;
  }
  (void)::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK);
  ClientRun run;
  run.outcomes.assign(kRequests, Outcome{});
  run.lag_us.assign(kRequests, 0.0);
  const std::int64_t t0 = now_ns();
  run_open_loop(fds[0], requests, 0, kRequests, t0, 1.0, 2.0, &run);
  ::shutdown(fds[0], SHUT_RDWR);
  server.join();
  ::close(fds[0]);
  ::close(fds[1]);

  std::size_t due_in_stall = 0;
  bool charged = true;
  bool sent_on_time = true;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(requests[i].due_s * 1e9);
    if (due < stall_start || due >= stall_end) continue;
    ++due_in_stall;
    const double owed_us = static_cast<double>(stall_end - due) * 1e-3;
    charged &= run.outcomes[i].replied && run.outcomes[i].latency_us >= owed_us;
    sent_on_time &= run.lag_us[i] < 5000.0;
  }
  expect(due_in_stall >= 100, "stall: " + std::to_string(due_in_stall) +
                                  " requests were due during the stall");
  expect(charged, "stall: each request due during the stall waited at least "
                  "until it ended, timed from its due time");
  expect(sent_on_time, "stall: the client kept sending while replies were late");
  const Outcome& last = run.outcomes[kRequests - 1];
  expect(last.replied && last.latency_us < 20000.0,
         "stall: requests due after the stall recover");
}

std::vector<std::string> metric_names(const Result& r) {
  std::vector<std::string> names;
  for (const Metric& m : r.metrics) names.push_back(m.name);
  return names;
}

void test_seed(const Options& base, Result (*run)(const Options&, Tracer&)) {
  Options a = base;
  a.seed = 1;
  Options b = base;
  b.seed = 2;
  Tracer tracer;
  const Result ra = run(a, tracer);
  const Result rb = run(b, tracer);
  const std::string tag = base.workload + (base.trace ? " traced" : "");
  expect(ra.failed == 0 && rb.failed == 0, tag + ": both seeds run clean");
  expect(ra.digest != rb.digest, tag + ": the seed changes the inputs");
  expect(metric_names(ra) == metric_names(rb) && !ra.metrics.empty(),
         tag + ": the seed keeps the metric names");
}

}  // namespace

int main(int argc, char** argv) {
  Options base;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--server") == 0) base.server_binary = argv[i + 1];
    if (std::strcmp(argv[i], "--bench") == 0) base.bench_binary = argv[i + 1];
    if (std::strcmp(argv[i], "--out-dir") == 0) base.out_dir = argv[i + 1];
  }
  if (base.server_binary.empty() || base.bench_binary.empty()) {
    std::fputs("usage: perfbench_selftest --server PATH --bench PATH --out-dir DIR\n",
               stderr);
    return 2;
  }
  mcs::common::set_default_jobs(0);
  test_paper_measure_checks();
  test_design_sweep_checks();
  test_transcript_check();
  test_stall_is_charged();

  base.seconds = 0.1;
  base.workload = "paper_measure";
  test_seed(base, run_paper_measure);
  base.workload = "design_sweep";
  test_seed(base, run_design_sweep);
  base.trace = true;
  test_seed(base, run_design_sweep);
  base.trace = false;
  base.workload = "serve_churn";
  base.seconds = 5.0;  // the nominal step needs >= 10 samples above p99
  test_seed(base, run_serve_churn);

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
