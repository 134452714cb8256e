// Tiny declarative command-line parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, boolean `--flag`, and `--help`.
// Unknown options are an error so typos in sweep parameters do not silently
// fall back to defaults. Also transparently skips google-benchmark's
// `--benchmark_*` options so mixed binaries can share argv.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mcs::common {

struct Shard;

/// Declarative option set. Register options, then `parse(argc, argv)`.
class Cli {
 public:
  /// `program_summary` is printed at the top of --help output.
  explicit Cli(std::string program_summary);

  /// Registers a 64-bit unsigned option (e.g. --seed, --samples).
  void add_u64(const std::string& name, std::uint64_t* target,
               const std::string& help);

  /// Registers a floating-point option (e.g. --utilization).
  void add_double(const std::string& name, double* target,
                  const std::string& help);

  /// Registers a string option.
  void add_string(const std::string& name, std::string* target,
                  const std::string& help);

  /// Registers a boolean flag (presence sets true; --name=false clears).
  void add_flag(const std::string& name, bool* target, const std::string& help);

  /// Registers the standard `--jobs N` option: sets the process-wide
  /// degree of parallelism for parallel_map/parallel_for (see
  /// common/thread_pool.hpp). 0 or absent means hardware concurrency;
  /// 1 selects the legacy serial path. Results are identical for any N.
  void add_jobs();

  /// Registers the standard `--out FILE` option: the driver writes its
  /// CSV block atomically to FILE (temp file + rename, see
  /// common/csv_merge.hpp) instead of stdout, so a shard partial that a
  /// later mcs_merge reads is never torn. Implies --csv on
  /// drivers that have a human-readable mode.
  void add_output(std::string* target);

  /// Registers the standard `--shard i/N` option for multi-host fan-out:
  /// the driver evaluates only shard i's slice of its outer index space
  /// and emits a partial CSV that tools/mcs_merge recombines (see
  /// common/executor.hpp). Absent means the whole space.
  void add_shard(Shard* target);

  /// Parses argv. Returns false if --help was requested (help text already
  /// printed) or on a parse error (message printed to stderr).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// Renders the help text.
  [[nodiscard]] std::string help_text() const;

 private:
  struct Option {
    std::string name;
    std::string help;
    bool is_flag = false;
    std::function<bool(const std::string&)> apply;
    std::string default_repr;
  };

  const Option* find(const std::string& name) const;

  std::string summary_;
  std::vector<Option> options_;
};

}  // namespace mcs::common
