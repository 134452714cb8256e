// serve_churn: an open loop of requests at fixed offered rates over one
// TCP connection to a real `mcs-cli serve --listen` process.
//
// The request stream is a function of the seed alone: admit/remove churn
// holding the resident set at kResident, `record` for the HC residents
// (some of which drift, so `tick` re-optimizes them), periodic `stats` and
// `tick`. Its structure is fixed and the seed draws the task parameters,
// so every seed puts the same kind of load on the server. One connection
// keeps the request order fixed, so the server's work and its transcript
// are identical on every run; the transcript must match an in-process
// ServeSession replay byte for byte.
//
// The timed phase runs a ladder of fixed-rate steps, each followed by a
// burst that writes requests as fast as the socket takes them; every step
// and burst is drained before the next. Latency is timed from each
// request's due time.
//
// The traced run adds in-process replays of the same stream (spans off,
// on, off, on): ServeSession::handle_line per request, and the admits and
// removes against a bare AdmissionController.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/thread_pool.hpp"  // index_seed
#include "core/admission.hpp"
#include "core/serve.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = mcs::core;
using mcs::common::Rng;

constexpr std::size_t kResident = 200;      ///< resident set held near this
constexpr std::size_t kMinJobs = 20;        ///< server --min-jobs
constexpr double kTolerance = 0.15;         ///< server --tolerance
constexpr std::size_t kWriteEvery = 20;     ///< one admit or remove per 20
constexpr std::size_t kStatsEvery = 20;
constexpr std::size_t kTickEvery = 2000;
constexpr std::size_t kDriftEvery = 10;     ///< every 10th task (an HC one) drifts
constexpr double kDriftFactor = 1.5;

/// The ladder of offered rates (requests/s) and each step's share of the
/// timed phase (the rest goes to drains and the bursts): a short warm step,
/// the long nominal step, then kRiseSteps rates rising by 2^(1/4) from 20k
/// to 160k req/s, across the server's capacity on one connection (about
/// 100k req/s on a 4-vCPU host), so sustained_rps resolves to one step.
struct LadderStep {
  double rate;
  double share;
};
constexpr std::size_t kNominalStep = 1;
constexpr std::size_t kRiseSteps = 13;
constexpr double kRiseShare = 0.015;

std::vector<LadderStep> ladder() {
  std::vector<LadderStep> steps = {{5000.0, 0.05}, {10000.0, 0.25}};
  for (std::size_t k = 0; k < kRiseSteps; ++k)
    steps.push_back({20000.0 * std::pow(2.0, static_cast<double>(k) / 4.0),
                     kRiseShare});
  return steps;
}
constexpr double kLatencyLimitUs = 20000.0;  ///< p99 limit of a passing step
constexpr std::size_t kP99Block = 1000;     ///< timed requests per p99 block
constexpr std::size_t kBursts = 16;         ///< throughput bursts
constexpr std::size_t kBurst = 50000;       ///< requests per burst
constexpr double kDrainS = 5.0;             ///< longest wait for replies
constexpr double kStepGapS = 0.05;          ///< pause between steps
constexpr std::size_t kSetups = 9;
constexpr std::size_t kDigestPrefix = 20000;  ///< requests the digest covers

/// One task the generator may admit.
struct TaskSpec {
  std::string name;
  bool hc = false;
  double wcet_lo = 0.0;
  double wcet_hi = 0.0;
  double period = 0.0;
  double acet = 0.0;
  double sigma = 0.0;
  bool drifts = false;
  std::size_t records = 0;  ///< record lines generated so far
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

TaskSpec make_task(Rng& rng, std::size_t index) {
  TaskSpec t;
  t.name = "t" + std::to_string(index);
  t.hc = index % 2 == 0;
  t.period = std::round(rng.uniform(100.0, 900.0));
  const double u = rng.uniform(0.001, 0.008);
  if (t.hc) {
    t.wcet_hi = u * t.period;
    t.acet = t.wcet_hi * rng.uniform(0.15, 0.3);
    t.sigma = t.acet * rng.uniform(0.05, 0.2);
    t.wcet_lo = std::min(t.acet + 3.0 * t.sigma, t.wcet_hi);
    t.drifts = index % kDriftEvery == 0;
  } else {
    t.wcet_lo = u * t.period;
  }
  return t;
}

std::string admit_line(const TaskSpec& t) {
  if (!t.hc)
    return "admit name=" + t.name + " crit=LC wcet_lo=" + fmt(t.wcet_lo) +
           " period=" + fmt(t.period);
  return "admit name=" + t.name + " crit=HC wcet_lo=" + fmt(t.wcet_lo) +
         " wcet_hi=" + fmt(t.wcet_hi) + " period=" + fmt(t.period) +
         " acet=" + fmt(t.acet) + " sigma=" + fmt(t.sigma);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl == std::string::npos ? std::string::npos
                                                              : nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return lines;
}

core::ServeSession::Config session_config() {
  core::ServeSession::Config config;
  config.min_jobs = kMinJobs;
  config.moment_tolerance = kTolerance;
  return config;
}

/// The seed's request stream: `fill` admits first, then `count` churn
/// requests. Replies come from an in-process reference session.
struct Stream {
  std::vector<Request> requests;
  std::vector<TaskSpec> tasks;  ///< every task an admit line names
  std::size_t fill = 0;
};

Stream build_stream(std::uint64_t seed, std::size_t count) {
  Stream stream;
  Rng rng(mcs::common::index_seed(seed, 0x5e7e));
  core::ServeSession reference(session_config());
  std::vector<std::size_t> resident;  // indices into stream.tasks
  std::vector<std::size_t> monitored; // resident HC tasks
  std::size_t next_record = 0;
  auto push = [&](std::string line, const char* verb) {
    Request r;
    r.line = std::move(line);
    r.verb = verb;
    r.replies = split_lines(reference.handle_line(r.line));
    for (const std::string& reply : r.replies)
      if (reply.rfind("err", 0) == 0)
        throw std::logic_error("serve stream: '" + r.line + "' -> " + reply);
    stream.requests.push_back(std::move(r));
    return stream.requests.back().replies;
  };
  auto admit = [&]() {
    stream.tasks.push_back(make_task(rng, stream.tasks.size()));
    const std::size_t index = stream.tasks.size() - 1;
    const auto replies = push(admit_line(stream.tasks[index]), "admit");
    if (replies.at(0).rfind("ok admit", 0) == 0) {
      resident.push_back(index);
      if (stream.tasks[index].hc) monitored.push_back(index);
    }
  };
  auto remove = [&]() {  // the oldest resident departs
    const std::size_t index = resident.front();
    resident.erase(resident.begin());
    monitored.erase(std::remove(monitored.begin(), monitored.end(), index),
                    monitored.end());
    push("remove name=" + stream.tasks[index].name, "remove");
  };

  while (resident.size() < kResident) {
    if (stream.tasks.size() > 4 * kResident)
      throw std::logic_error("serve stream: cannot fill the resident set");
    admit();
  }
  stream.fill = stream.requests.size();
  for (std::size_t j = 1; j <= count; ++j) {
    if (j % kTickEvery == 0) {
      push("tick", "tick");
    } else if (j % kStatsEvery == kStatsEvery / 2) {
      push("stats", "stats");
    } else if (j % kWriteEvery == 0) {
      if (resident.size() >= kResident) remove();
      else admit();
    } else if (!monitored.empty()) {
      // Records go round-robin over the monitored tasks and alternate
      // mean +/- sigma, so a task's sample moments match its profile and
      // only the drifting tasks (mean moved by kDriftFactor) are
      // re-optimized: each once, at the first tick after kMinJobs records.
      TaskSpec& t = stream.tasks[monitored[next_record++ % monitored.size()]];
      const double mean = t.drifts ? t.acet * kDriftFactor : t.acet;
      const double time = mean + (t.records++ % 2 == 0 ? t.sigma : -t.sigma);
      push("record name=" + t.name + " time=" + fmt(time), "record");
    } else {
      push("stats", "stats");
    }
  }
  return stream;
}

std::uint64_t stream_digest(const Stream& stream) {
  Digest d;
  const std::size_t n =
      std::min(stream.requests.size(), stream.fill + kDigestPrefix);
  for (std::size_t i = 0; i < n; ++i) {
    d.add(stream.requests[i].line);
    for (const std::string& reply : stream.requests[i].replies) d.add(reply);
  }
  return d.value();
}

// ---- server process --------------------------------------------------------

/// Two different CPUs of this process's allowed set, for the client and
/// the server; -1 each when fewer than two are allowed. Left to itself the
/// scheduler sometimes stacks client and server on one CPU after a burst,
/// and then the paced capacity halves for the rest of the run.
std::pair<int, int> cpu_pair() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {-1, -1};
  int cpus[2] = {-1, -1};
  int found = 0;
  for (int c = 0; c < CPU_SETSIZE && found < 2; ++c)
    if (CPU_ISSET(c, &allowed)) cpus[found++] = c;
  return found == 2 ? std::pair{cpus[0], cpus[1]} : std::pair{-1, -1};
}

/// Pins process `pid` (0: the calling thread) to `cpu`; -1 leaves it.
void pin(pid_t pid, int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)::sched_setaffinity(pid, sizeof one, &one);
}

/// A running `mcs-cli serve --listen` child and the client's connection.
/// The destructor shuts the server down and reaps it.
class Server {
 public:
  Server(const Options& options, std::size_t instance, int cpu) {
    port_file_ = options.out_dir + "/serve-" + std::to_string(instance) + ".port";
    std::remove(port_file_.c_str());
    mcs::common::SpawnOptions spawn;
    spawn.stderr_path = options.out_dir + "/serve-" + std::to_string(instance) + ".log";
    // Same process group as the benchmark, so a caller that kills the
    // benchmark's group also stops the server.
    spawn.new_process_group = false;
    proc_ = mcs::common::Subprocess::spawn(
        {options.server_binary, "serve", "--listen", "--port=0",
         "--port-file=" + port_file_, "--min-jobs=" + std::to_string(kMinJobs),
         "--tolerance=" + fmt(kTolerance)},
        spawn);
    pin(proc_.pid(), cpu);
    try {
      connect_to(wait_port());
    } catch (...) {
      // No destructor runs for a half-built object: stop the child here.
      if (fd_ >= 0) ::close(fd_);
      proc_.kill(SIGKILL);
      (void)proc_.wait_deadline(3000.0);
      throw;
    }
  }
  ~Server() {
    if (fd_ >= 0) {
      static const char kShutdown[] = "shutdown\n";
      (void)::send(fd_, kShutdown, sizeof kShutdown - 1, MSG_NOSIGNAL);
      ::close(fd_);
    }
    if (!proc_.finished()) (void)proc_.wait_deadline(3000.0);
    std::remove(port_file_.c_str());
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] long pid() const { return static_cast<long>(proc_.pid()); }

 private:
  void connect_to(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve_churn: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("serve_churn: cannot connect to the server");
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    (void)::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  int wait_port() {
    const std::int64_t start = now_ns();
    while (seconds_since(start) < 10.0) {
      std::ifstream in(port_file_);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') return std::stoi(text);
      if (proc_.poll())
        throw std::runtime_error("serve_churn: server exited at start-up (" +
                                 proc_.status().describe() + ")");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("serve_churn: no port file from the server");
  }

  mcs::common::Subprocess proc_;
  std::string port_file_;
  int fd_ = -1;
};

// ---- one step --------------------------------------------------------------

struct StepReport {
  double rate = 0.0;
  std::size_t requests = 0;
  std::vector<double> latencies_us;  ///< replied requests (failed = +huge)
  std::size_t failed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t blocks = 0;     ///< blocks the p99 is the median over
  std::size_t above_p99 = 0;  ///< fewest samples above p99 in any block
  double lag_p99 = 0.0;
  bool backlog = false;
  double achieved_rps = 0.0;
  double server_cpu_s = 0.0;  ///< measured for the bursts only
  bool pass = false;
};

constexpr double kFailedLatencyUs = 1e12;

/// Runs requests [begin, end) as one step and summarizes it.
StepReport run_step(int fd, std::vector<Request>& requests, std::size_t begin,
                    std::size_t end, double due_scale, ClientRun* run) {
  StepReport step;
  step.requests = end - begin;
  const std::int64_t t0 = now_ns();
  run_open_loop(fd, requests, begin, end, t0, due_scale, kDrainS, run);
  double last_done_s = 0.0;
  std::vector<double> lags;
  for (std::size_t i = begin; i < end; ++i) {
    const Outcome& o = run->outcomes[i];
    if (requests[i].replies.empty()) continue;
    if (o.error || !o.replied) {
      ++step.failed;
      step.latencies_us.push_back(kFailedLatencyUs);
      continue;
    }
    step.latencies_us.push_back(o.latency_us);
    last_done_s = std::max(last_done_s,
                           requests[i].due_s * due_scale + o.latency_us * 1e-6);
  }
  for (std::size_t i = begin; i < end; ++i) lags.push_back(run->lag_us[i]);
  step.p50 = median(step.latencies_us);
  // p99 is the median over consecutive blocks of kP99Block timed requests
  // of each block's p99 (a short host stall then moves one block, not the
  // step); every block has at least kP99Block / 100 samples above its p99.
  const std::vector<double>& lat = step.latencies_us;
  std::vector<double> block_p99;
  for (std::size_t b = 0; b < lat.size();) {
    // The last block absorbs a remainder shorter than kP99Block.
    const std::size_t e = lat.size() - b < 2 * kP99Block ? lat.size() : b + kP99Block;
    const std::vector<double> block(lat.begin() + static_cast<std::ptrdiff_t>(b),
                                    lat.begin() + static_cast<std::ptrdiff_t>(e));
    const double p99 = percentile(block, 0.99);
    const std::size_t above = count_above(block, p99);
    step.above_p99 = block_p99.empty() ? above : std::min(step.above_p99, above);
    block_p99.push_back(p99);
    b = e;
  }
  step.p99 = median(block_p99);
  step.blocks = block_p99.size();
  step.lag_p99 = percentile(lags, 0.99);
  const double span_s =
      std::max(last_done_s, (requests[end - 1].due_s - requests[begin].due_s) *
                                due_scale);
  step.achieved_rps = span_s > 0.0 ? static_cast<double>(step.requests) / span_s : 0.0;
  // Backlog: when the last request went out, the oldest unanswered one had
  // already waited longer than the limit.
  double oldest_wait_us = 0.0;
  const double last_due_s = requests[end - 1].due_s * due_scale;
  for (std::size_t i = begin; i < end; ++i) {
    const Outcome& o = run->outcomes[i];
    if (requests[i].replies.empty()) continue;
    const double done_s = requests[i].due_s * due_scale + o.latency_us * 1e-6;
    if (!o.replied || done_s > last_due_s) {
      oldest_wait_us = (last_due_s - requests[i].due_s * due_scale) * 1e6;
      break;
    }
  }
  step.backlog = oldest_wait_us > kLatencyLimitUs;
  step.pass = step.failed == 0 && !step.backlog && step.p99 <= kLatencyLimitUs;
  return step;
}

/// Due times: requests [begin, end) evenly spaced at `rate`, from 0.
void schedule(std::vector<Request>& requests, std::size_t begin, std::size_t end,
              double rate) {
  for (std::size_t i = begin; i < end; ++i)
    requests[i].due_s = static_cast<double>(i - begin) / rate;
}

// ---- in-process replays (traced run) ---------------------------------------

struct ReplayOut {
  std::vector<double> handle_us;   ///< per request, ServeSession::handle_line
  std::vector<std::string> transcript;
  core::AdmissionController::Stats session_stats;
  std::vector<double> try_admit_us;
  std::vector<double> remove_us;
};

ReplayOut replay(Tracer& tracer, const Stream& stream) {
  ReplayOut out;
  core::ServeSession session(session_config());
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Request& r = stream.requests[i];
    const std::int64_t t0 = now_ns();
    std::string reply;
    {
      ScopedSpan span(tracer, std::string("core.serve.") + r.verb, i);
      reply = session.handle_line(r.line);
    }
    out.handle_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    for (std::string& line : split_lines(reply)) out.transcript.push_back(std::move(line));
  }
  out.session_stats = session.front().controller(0).stats();

  // The same admits and removes against a bare controller.
  core::AdmissionController controller;
  std::map<std::string, std::uint64_t> ids;
  std::size_t next_task = 0;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Request& r = stream.requests[i];
    if (std::string_view(r.verb) == "admit") {
      const TaskSpec& t = stream.tasks[next_task++];
      mcs::mc::McTask task =
          t.hc ? mcs::mc::McTask::high(t.name, t.wcet_lo, t.wcet_hi, t.period)
               : mcs::mc::McTask::low(t.name, t.wcet_lo, t.period);
      if (t.hc) task.stats = mcs::mc::ExecutionStats{t.acet, t.sigma, nullptr};
      const std::int64_t t0 = now_ns();
      core::AdmissionController::Decision d;
      {
        ScopedSpan span(tracer, "core.admission.try_admit", i);
        d = controller.try_admit(task);
      }
      out.try_admit_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (d.admitted) ids[t.name] = d.id;
    } else if (std::string_view(r.verb) == "remove") {
      const std::string name = r.line.substr(r.line.find('=') + 1);
      const auto it = ids.find(name);
      if (it == ids.end()) continue;
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(tracer, "core.admission.remove", i);
        (void)controller.remove(it->second);
      }
      out.remove_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ids.erase(it);
    }
  }
  return out;
}

// ---- the workload ----------------------------------------------------------

using Range = std::pair<std::size_t, std::size_t>;  ///< [begin, end)

/// Step k of the ladder runs, then burst k; bursts left over run after the
/// ladder. Spreading the bursts over the whole run makes their median
/// sample more of the host's slow phases than bursts run back to back.
struct Plan {
  std::vector<Range> steps;
  std::vector<Range> bursts;
  std::size_t end = 0;
};

/// Splits the requests after the fill, in the order they run, into the
/// ladder's steps (each lasts its share of `seconds`) and the throughput
/// bursts.
Plan make_plan(std::size_t fill, double seconds) {
  Plan plan;
  std::size_t at = fill;
  const std::vector<LadderStep> steps = ladder();
  for (std::size_t k = 0; k < std::max(steps.size(), kBursts); ++k) {
    if (k < steps.size()) {
      const auto n =
          static_cast<std::size_t>(steps[k].rate * steps[k].share * seconds);
      plan.steps.emplace_back(at, at + n);
      at += n;
    }
    if (k < kBursts) {
      plan.bursts.emplace_back(at, at + kBurst);
      at += kBurst;
    }
  }
  plan.end = at;
  return plan;
}

/// Everything one live session against the server produced.
struct LiveRun {
  double setup_s = 0.0;
  std::vector<StepReport> steps;
  std::vector<StepReport> bursts;
  ClientRun client;
  double server_rss_mb = 0.0;
};

LiveRun run_live(const Options& options, Stream& stream, const Plan& plan) {
  LiveRun live;
  live.client.outcomes.assign(stream.requests.size(), Outcome{});
  // Sized up front: growing it mid-step would stall the client.
  std::size_t reply_lines = 0;
  for (const Request& r : stream.requests) reply_lines += r.replies.size();
  live.client.transcript.reserve(reply_lines);
  live.client.lag_us.assign(stream.requests.size(), 0.0);

  // Set-up: spawn, port-file handshake, connect and fill to kResident.
  // Repeated; the median is reported and the last server is kept. The
  // stream itself (the benchmark's input synthesis) is built before.
  std::vector<double> setups;
  std::unique_ptr<Server> server;
  const auto [client_cpu, server_cpu] = cpu_pair();
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kSetups; ++i) {
    server.reset();
    server = std::make_unique<Server>(options, i, server_cpu);
    live.client.transcript.clear();
    std::fill_n(live.client.outcomes.begin(), stream.fill, Outcome{});
    (void)run_step(server->fd(), stream.requests, 0, stream.fill, 0.0, &live.client);
    setups.push_back(seconds_since(t0));
    t0 = now_ns();
  }
  live.setup_s = median(setups);
  pin(0, client_cpu);

  const std::vector<LadderStep> steps = ladder();
  for (std::size_t k = 0; k < std::max(plan.steps.size(), plan.bursts.size()); ++k) {
    if (k < plan.steps.size()) {
      const auto [begin, end] = plan.steps[k];
      schedule(stream.requests, begin, end, steps[k].rate);
      live.steps.push_back(run_step(server->fd(), stream.requests, begin, end,
                                    1.0, &live.client));
      live.steps.back().rate = steps[k].rate;
      std::this_thread::sleep_for(std::chrono::duration<double>(kStepGapS));
    }
    if (k < plan.bursts.size()) {
      const auto [begin, end] = plan.bursts[k];
      const double cpu0 = cpu_seconds(server->pid());
      live.bursts.push_back(run_step(server->fd(), stream.requests, begin, end,
                                     0.0, &live.client));
      live.bursts.back().server_cpu_s = cpu_seconds(server->pid()) - cpu0;
      std::this_thread::sleep_for(std::chrono::duration<double>(kStepGapS));
    }
  }
  live.server_rss_mb = peak_rss_mb(server->pid());
  return live;
}

void report_steps(const LiveRun& live, Result* result) {
  for (const StepReport& s : live.steps) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "step %.0f req/s: %zu requests, %zu timed, p50 %.1f us, "
                  "p99 %.1f us (median of %zu blocks, >= %zu above), "
                  "lag p99 %.1f us, backlog %s, %s",
                  s.rate, s.requests, s.latencies_us.size(), s.p50, s.p99,
                  s.blocks, s.above_p99, s.lag_p99, s.backlog ? "yes" : "no",
                  s.pass ? "pass" : "FAIL");
    result->notes.emplace_back(buf);
  }
  for (const StepReport& s : live.bursts) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "burst: %zu requests at %.0f req/s, server CPU %.2f s",
                  s.requests, s.achieved_rps, s.server_cpu_s);
    result->notes.emplace_back(buf);
  }
}

double burst_rps(const LiveRun& live) {
  std::vector<double> rates;
  for (const StepReport& s : live.bursts) rates.push_back(s.achieved_rps);
  return median(rates);
}

/// Counts failures and checks the transcript of everything sent.
void account(const Stream& stream, const LiveRun& live, std::uint64_t seed,
             std::uint64_t digest, Result* result) {
  result->attempted = stream.requests.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Outcome& o = live.client.outcomes[i];
    if (o.error || (!stream.requests[i].replies.empty() && !o.replied)) ++failed;
  }
  if (CheckError e = check_transcript(stream.requests, live.client.transcript)) {
    ++failed;
    result->notes.push_back("serve_churn: " + *e);
  }
  if (live.client.connection_error)
    result->notes.push_back("serve_churn: connection error: " + live.client.error);
  if (CheckError e = check_digest("serve_churn", seed, digest)) {
    ++failed;
    result->notes.push_back("serve_churn: " + *e);
  }
  result->failed = std::min<std::uint64_t>(failed, result->attempted);
}

double sustained_rps(const LiveRun& live) {
  double best = 0.0;
  for (const StepReport& s : live.steps)
    if (s.pass) best = s.achieved_rps;
  return best;
}

}  // namespace

void run_open_loop(int fd, const std::vector<Request>& requests,
                   std::size_t begin, std::size_t end, std::int64_t t0_ns,
                   double due_scale, double drain_s, ClientRun* run) {
  constexpr std::int64_t kSpinNs = 200000;
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::deque<std::size_t> waiting;   // non-silent requests, FIFO
  std::size_t lines_left = 0;        // reply lines still due for waiting.front()
  std::string out;                   // unsent bytes
  std::string in;                    // unparsed received bytes
  std::size_t next = begin;
  const auto due_ns = [&](std::size_t i) {
    return t0_ns + static_cast<std::int64_t>(requests[i].due_s * due_scale * 1e9);
  };
  const std::int64_t last_due = end > begin ? due_ns(end - 1) : t0_ns;
  const std::int64_t deadline =
      last_due + static_cast<std::int64_t>(drain_s * 1e9);
  char buf[1 << 16];
  while (!run->connection_error) {
    std::int64_t now = now_ns();
    while (next < end && due_ns(next) <= now) {
      out += requests[next].line;
      out += '\n';
      run->lag_us[next] = static_cast<double>(now - due_ns(next)) * 1e-3;
      if (!requests[next].replies.empty()) {
        if (waiting.empty()) lines_left = requests[next].replies.size();
        waiting.push_back(next);
      }
      ++next;
    }
    if (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        run->connection_error = true;
        run->error = "send failed";
        break;
      }
      if (n > 0) out.erase(0, static_cast<std::size_t>(n));
    }
    if (next >= end && waiting.empty() && out.empty()) break;
    now = now_ns();
    if (now > deadline) break;

    // Wait for replies, or until the next request is due. Sleeps stop
    // kSpinNs early and the rest is polled, so sends leave on time.
    std::int64_t wait_ns = deadline - now;
    if (next < end) wait_ns = std::min(wait_ns, due_ns(next) - now);
    wait_ns = wait_ns > kSpinNs ? wait_ns - kSpinNs : 0;
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    timespec ts{};
    if (wait_ns > 0) {
      ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    }
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      run->connection_error = true;
      run->error = "poll failed";
      break;
    }
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      run->connection_error = true;
      run->error = n == 0 ? "server closed the connection" : "recv failed";
      break;
    }
    if (n < 0) continue;
    const std::int64_t got_at = now_ns();
    in.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl; (nl = in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
      std::string line = in.substr(pos, nl - pos);
      if (waiting.empty()) {
        run->transcript.push_back(std::move(line));  // unsolicited line
        continue;
      }
      const std::size_t i = waiting.front();
      Outcome& o = run->outcomes[i];
      if (line.rfind("err", 0) == 0) o.error = true;
      run->transcript.push_back(std::move(line));
      if (--lines_left == 0) {
        o.replied = true;
        o.latency_us = static_cast<double>(got_at - due_ns(i)) * 1e-3;
        waiting.pop_front();
        if (!waiting.empty()) lines_left = requests[waiting.front()].replies.size();
      }
    }
    in.erase(0, pos);
  }
  for (const std::size_t i : waiting) run->outcomes[i].error = true;
}

CheckError check_transcript(const std::vector<Request>& requests,
                            const std::vector<std::string>& got) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (const std::string& want : requests[i].replies) {
      if (at >= got.size())
        return "transcript ends early at request " + std::to_string(i) + " ('" +
               requests[i].line + "')";
      if (got[at] != want)
        return "transcript differs at request " + std::to_string(i) + ": got '" +
               got[at] + "', replay has '" + want + "'";
      ++at;
    }
  }
  if (at != got.size())
    return "transcript has " + std::to_string(got.size() - at) + " extra lines";
  return std::nullopt;
}

Result run_serve_churn(const Options& options, Tracer& tracer) {
  if (options.server_binary.empty())
    throw std::invalid_argument("serve_churn needs --server (the mcs-cli binary)");
  if (options.setup_only)
    throw std::invalid_argument("serve_churn times its set-ups in one run");
  (void)::signal(SIGPIPE, SIG_IGN);
  Stream stream = build_stream(
      options.seed, std::max(make_plan(0, options.seconds).end, kDigestPrefix));
  const std::uint64_t digest = stream_digest(stream);
  const Plan plan = make_plan(stream.fill, options.seconds);
  stream.requests.resize(plan.end);

  Result result;
  result.digest = digest;
  const LiveRun live = run_live(options, stream, plan);
  account(stream, live, options.seed, digest, &result);
  report_steps(live, &result);
  // The latency figures and the sustained rate are reported here, not as
  // metrics: every workload must print every end-to-end metric, and the
  // batch workloads have no rate ladder. The p99 also follows host stalls,
  // and the sustained rate moves in whole ladder steps.
  const StepReport& nominal = live.steps[kNominalStep];
  char note[200];
  std::snprintf(note, sizeof note,
                "nominal %.0f req/s: latency p50 %.1f us, p99 %.1f us over %zu "
                "samples (>= %zu above p99 per block); sustained %.0f req/s",
                nominal.rate, nominal.p50, nominal.p99, nominal.latencies_us.size(),
                nominal.above_p99, sustained_rps(live));
  result.notes.emplace_back(note);
  if (nominal.above_p99 < 10) {
    ++result.failed;
    result.notes.push_back("serve_churn: fewer than 10 samples above p99");
  }

  if (!options.trace) {
    result.add("setup_s", live.setup_s, "s");
    result.add("items_per_s", burst_rps(live), "items/s");
    result.add("peak_rss_mb", live.server_rss_mb, "MiB");
    return result;
  }

  // Traced: the in-process replays, spans off, on, off, on; the overhead
  // ratio compares the summed pairs.
  double replay_s[2] = {0.0, 0.0};
  ReplayOut traced;
  for (int pass = 0; pass < 4; ++pass) {
    const int on = pass % 2;
    tracer.clear();
    tracer.set_enabled(on == 1);
    const std::int64_t t0 = now_ns();
    traced = replay(tracer, stream);
    replay_s[on] += seconds_since(t0);
  }
  tracer.set_enabled(false);
  ++result.attempted;
  if (CheckError e = check_transcript(stream.requests, traced.transcript)) {
    ++result.failed;
    result.notes.push_back("serve_churn replay: " + *e);
  }

  std::map<std::string, std::vector<double>> by_verb;
  for (std::size_t i = 0; i < stream.requests.size(); ++i)
    by_verb[stream.requests[i].verb].push_back(traced.handle_us[i]);
  std::map<std::string, double> layer;
  for (const char* verb : {"admit", "remove", "record", "tick", "stats"})
    layer[std::string("core.serve.") + verb + "_p50_us"] = median(by_verb[verb]);
  layer["core.serve.admit_p99_us"] = percentile(by_verb["admit"], 0.99);
  layer["core.admission.try_admit_p50_us"] = median(traced.try_admit_us);
  layer["core.admission.remove_p50_us"] = median(traced.remove_us);
  const core::AdmissionController::Stats& s = traced.session_stats;
  layer["core.admission.append_scan_ratio"] =
      s.full_scans + s.append_scans == 0
          ? 0.0
          : static_cast<double>(s.append_scans) /
                static_cast<double>(s.full_scans + s.append_scans);
  layer["core.admission.accept_ratio"] =
      s.arrivals == 0 ? 0.0
                      : static_cast<double>(s.admitted) / static_cast<double>(s.arrivals);
  std::size_t reopts = 0;
  for (const std::string& line : traced.transcript)
    if (line.rfind("reopt", 0) == 0) ++reopts;
  layer["core.online.reopts"] = static_cast<double>(reopts);
  // Net overhead: the nominal step's replied requests, end to end minus
  // in process.
  std::vector<double> in_process;
  const auto [nb, ne] = plan.steps[kNominalStep];
  for (std::size_t i = nb; i < ne; ++i)
    if (!stream.requests[i].replies.empty()) in_process.push_back(traced.handle_us[i]);
  layer["common.net.overhead_p50_us"] = nominal.p50 - median(in_process);
  std::vector<double> lags(live.client.lag_us.begin() + static_cast<std::ptrdiff_t>(nb),
                           live.client.lag_us.begin() + static_cast<std::ptrdiff_t>(ne));
  layer["bench.generator_lag_p99_us"] = percentile(lags, 0.99);
  layer["bench.trace_overhead_ratio"] = replay_s[1] / replay_s[0];
  add_per_layer(&result, layer);
  return result;
}

}  // namespace perfbench
