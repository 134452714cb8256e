#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/subprocess.hpp"

namespace perfbench {
namespace {

const std::int64_t g_process_start_ns = now_ns();

/// Result digests recorded on the commit that introduced the benchmark
/// (see perfbench/BASELINE.md). A change of the sizes in a workload file
/// changes its digests, which must then be recorded again.
struct RecordedDigest {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr RecordedDigest kRecorded[] = {
#include "digests.inc"
};

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > threshold; }));
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

CheckError check_digest(std::string_view workload, std::uint64_t seed,
                        std::uint64_t digest) {
  std::optional<std::uint64_t> want;
  for (const RecordedDigest& r : kRecorded)
    if (workload == r.workload && seed == r.seed) want = r.digest;
  if (!want || *want == digest) return std::nullopt;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "result digest %016llx != recorded %016llx for seed %llu",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(*want),
                static_cast<unsigned long long>(seed));
  return std::string(buf);
}

double cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}


double seconds_since_start() { return seconds_since(g_process_start_ns); }

double cold_setup_s(const Options& options, std::size_t times,
                    double own_setup_s) {
  std::vector<double> setups = {own_setup_s};
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%.17g", options.seconds);
  mcs::common::SpawnOptions spawn;
  spawn.stdout_path = options.out_dir + "/" + options.workload + ".setup";
  spawn.new_process_group = false;  // stopped with the benchmark's group
  for (std::size_t i = 1; i < times; ++i) {
    const mcs::common::ExitStatus status = mcs::common::run_process(
        {options.bench_binary, "--workload", options.workload, "--seed",
         std::to_string(options.seed), "--seconds", seconds, "--trace", "0",
         "--out-dir", options.out_dir, "--setup-only", "1"},
        spawn, 60000.0);
    std::ifstream in(spawn.stdout_path);
    double value = 0.0;
    if (!status.success() || !(in >> value) || !(value > 0.0))
      throw std::runtime_error("cold set-up run failed (" +
                               status.describe() + ")");
    setups.push_back(value);
  }
  std::remove(spawn.stdout_path.c_str());
  std::string readings = "cold set-ups (s):";
  for (const double v : setups) readings += " " + std::to_string(v);
  std::fprintf(stderr, "%s\n", readings.c_str());
  return median(setups);
}

std::vector<double> run_ops(const Options& options,
                            const std::function<OpOutcome()>& op,
                            Result* result) {
  std::vector<double> op_seconds;
  const std::int64_t start = now_ns();
  while (op_seconds.empty() ||
         seconds_since(start) + median(op_seconds) <= options.seconds) {
    ++result->attempted;
    OpOutcome outcome;
    const std::int64_t op_start = now_ns();
    try {
      outcome = op();
      if (op_seconds.empty()) result->digest = outcome.digest;
      if (!outcome.error && outcome.digest != result->digest)
        outcome.error = "op digest changed between ops";
      if (!outcome.error)
        outcome.error =
            check_digest(options.workload, options.seed, outcome.digest);
    } catch (const std::exception& e) {
      outcome.seconds = seconds_since(op_start);
      outcome.error = std::string("exception: ") + e.what();
    }
    op_seconds.push_back(outcome.seconds);
    if (outcome.error) {
      ++result->failed;
      result->notes.push_back(options.workload + ": " + *outcome.error);
    }
  }
  return op_seconds;
}

void add_batch_metrics(Result* result, const std::vector<double>& op_seconds,
                       double items_per_op, double setup_s) {
  std::vector<double> rates;
  for (const double s : op_seconds) rates.push_back(items_per_op / s);
  result->add("setup_s", setup_s, "s");
  result->add("items_per_s", median(rates), "items/s");
  result->add("peak_rss_mb", peak_rss_mb(), "MiB");
  char note[128];
  std::snprintf(note, sizeof note,
                "%zu ops, op wall p50 %.3f s, slowest %.3f s",
                op_seconds.size(), median(op_seconds),
                percentile(op_seconds, 1.0));
  result->notes.emplace_back(note);
}

void add_per_layer(Result* result,
                   const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kCatalogue[] = {
      {"apps.measure_s", "s"},
      {"apps.qsort-10.ns_per_sample", "ns"},
      {"apps.qsort-100.ns_per_sample", "ns"},
      {"apps.qsort-10000.ns_per_sample", "ns"},
      {"apps.corner.ns_per_sample", "ns"},
      {"apps.edge.ns_per_sample", "ns"},
      {"apps.smooth.ns_per_sample", "ns"},
      {"apps.epic.ns_per_sample", "ns"},
      {"apps.host_ns_per_model_cycle", "ns/cycle"},
      {"apps.critical_path_share", "ratio"},
      {"wcet.analyze_s", "s"},
      {"stats.empirical_s", "s"},
      {"sched.policy_assign_s", "s"},
      {"taskgen.generate_s", "s"},
      {"ga.optimize_s", "s"},
      {"ga.evaluations", "count"},
      {"ga.cache_hit_ratio", "ratio"},
      {"ga.eval_us", "us"},
      {"sched.acceptance_s", "s"},
      {"sched.acceptance_ratio", "ratio"},
      {"sim.simulate_s", "s"},
      {"sim.jobs", "count"},
      {"sim.ns_per_job", "ns"},
      {"common.parallel_efficiency", "ratio"},
      {"core.serve.admit_p50_us", "us"},
      {"core.serve.remove_p50_us", "us"},
      {"core.serve.record_p50_us", "us"},
      {"core.serve.tick_p50_us", "us"},
      {"core.serve.stats_p50_us", "us"},
      {"core.serve.admit_p99_us", "us"},
      {"core.admission.try_admit_p50_us", "us"},
      {"core.admission.remove_p50_us", "us"},
      {"core.admission.append_scan_ratio", "ratio"},
      {"core.admission.accept_ratio", "ratio"},
      {"core.online.reopts", "count"},
      {"common.net.overhead_p50_us", "us"},
      {"bench.generator_lag_p99_us", "us"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kCatalogue) {
    const auto it = values.find(name);
    result->add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : kCatalogue) known |= name == entry.first;
    if (!known)
      throw std::logic_error("add_per_layer: uncatalogued metric " + name);
  }
}

std::string render_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
