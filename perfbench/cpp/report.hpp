// Shared types and helpers of the benchmark workloads: options, the
// result record printed as the last stdout line, percentile helpers,
// result digests and /proc memory readings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";       ///< where span files and server files go
  std::string server_binary;       ///< mcs-cli, for serve_churn
  std::string bench_binary;        ///< perfbench, re-run for cold set-ups
  /// Stop when the timed phase would begin and report only the set-up
  /// time (a batch workload's extra cold set-ups run the benchmark so).
  bool setup_only = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `attempted`/`failed` count operations: a
/// failed correctness check, a thrown error, or (serve) an err reply, a
/// missing reply or a connection error.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;        ///< of the workload's outputs for its seed
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for stderr
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Outcome of a correctness check: empty when it passed.
using CheckError = std::optional<std::string>;

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
/// Number of values strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values,
                                      double threshold);

/// FNV-1a accumulator over the bit patterns of result values.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(std::uint64_t value) { add_bytes(&value, sizeof value); }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    add_bytes(text.data(), text.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Checks a run's digest against the one recorded for (workload, seed) in
/// digests.inc, when there is one.
[[nodiscard]] CheckError check_digest(std::string_view workload,
                                      std::uint64_t seed,
                                      std::uint64_t digest);

/// User plus system CPU time of process `pid` in seconds (clock-tick
/// resolution); 0 when unreadable.
[[nodiscard]] double cpu_seconds(long pid);

/// Peak resident set (VmHWM) of `pid` in MiB, or of this process when
/// pid is 0; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(long pid = 0);

/// Seconds elapsed since `start_ns` (a now_ns() reading).
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Seconds from process start (static initialization of the benchmark).
[[nodiscard]] double seconds_since_start();

/// setup_s of a batch workload: the median of `times` cold set-ups, each
/// timed from process start until the timed phase begins. This process's
/// own set-up (`own_setup_s`) is the first; the others run fresh copies of
/// the benchmark with --setup-only, one after another.
[[nodiscard]] double cold_setup_s(const Options& options, std::size_t times,
                                  double own_setup_s);

/// One batch op: the wall time of its program calls, the digest of their
/// outputs, and the first failed correctness check.
struct OpOutcome {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  CheckError error;
};

/// Repeats `op` (at least once) while another op fits in options.seconds.
/// A failed check, a thrown error, a digest that moves between ops or one
/// that differs from the recorded digest fails the op. Returns the op
/// wall times; sets result->attempted, ->failed and ->digest.
std::vector<double> run_ops(const Options& options,
                            const std::function<OpOutcome()>& op,
                            Result* result);

/// Emits every end-to-end metric for a batch workload from per-op wall
/// times (one op is one request of a one-client closed loop) and the
/// items each op completed.
void add_batch_metrics(Result* result, const std::vector<double>& op_seconds,
                       double items_per_op, double setup_s);

/// Emits every per-layer metric in catalogue order; layers the workload
/// does not exercise report 0.
void add_per_layer(Result* result, const std::map<std::string, double>& values);

/// Renders the final JSON line.
[[nodiscard]] std::string render_json(const Result& result);

}  // namespace perfbench
