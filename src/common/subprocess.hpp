// Minimal POSIX subprocess supervision: spawn with stdout/stderr
// redirection, non-blocking polls, deadline waits and process-group
// kills, with exit codes and terminating signals reported separately.
//
// Its clients are the benchmark's serve_churn workload, which runs
// `mcs-cli serve` as a child and stops it by signal, and the benchmark
// report's cold set-up runs, each a fresh child under a deadline. A child
// in its own process group (the default) is killed as a unit together
// with any helpers it forked.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace mcs::common {

/// How one finished child ended.
struct ExitStatus {
  bool exited = false;    ///< child called exit(); `exit_code` is valid
  int exit_code = -1;
  bool signaled = false;  ///< child was killed; `term_signal` is valid
  int term_signal = 0;
  bool timed_out = false; ///< killed by wait_deadline's deadline

  /// Clean success: normal exit with status 0 and no timeout.
  [[nodiscard]] bool success() const {
    return exited && exit_code == 0 && !timed_out;
  }

  /// Human-readable summary ("exit 3", "signal 9 (timeout)", ...).
  [[nodiscard]] std::string describe() const;
};

/// Spawn-time options.
struct SpawnOptions {
  /// Redirect the child's stdout to this file (truncating). Empty
  /// inherits the parent's stdout.
  std::string stdout_path;
  /// Redirect the child's stderr likewise. Empty inherits.
  std::string stderr_path;
  /// Put the child in its own process group so kill() reaches every
  /// process a wrapper command forked.
  bool new_process_group = true;
};

/// One spawned child process. Movable, not copyable; the destructor does
/// not kill or reap a still-running child (callers own the lifecycle).
class Subprocess {
 public:
  /// An empty handle (no process; finished() is true with an unknown
  /// status). Spawn into it with `child = Subprocess::spawn(...)`.
  Subprocess() = default;

  /// Spawns `argv` (argv[0] resolved via PATH). Throws std::runtime_error
  /// when the process cannot be created; exec failures inside the child
  /// surface as exit code 127.
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const SpawnOptions& options = {});

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess() = default;

  /// Non-blocking: reaps and returns true if the child has finished
  /// (status() then holds the result); false while still running.
  /// Retries waitpid on EINTR — a signal delivered to the parent is
  /// never misread as the child having exited with an unknown status.
  bool poll();

  /// Blocks until the child finishes or `deadline_ms` elapses (measured
  /// from the call). On deadline expiry the child's process group is
  /// SIGKILLed and reaped; the status is marked timed_out only when the
  /// child did not manage a normal exit first (a child that exits between
  /// the deadline check and the SIGKILL keeps its genuine exit status).
  /// A negative deadline waits forever. Returns the final status.
  ExitStatus wait_deadline(double deadline_ms);

  /// Sends `signum` once per process: to the child's whole group when it
  /// has one (the group signal already reaches the leader), otherwise to
  /// the child directly. No-op once finished.
  void kill(int signum) const;

  [[nodiscard]] bool finished() const { return finished_; }
  /// Valid once finished() is true.
  [[nodiscard]] const ExitStatus& status() const { return status_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  bool own_group_ = false;
  bool finished_ = false;
  ExitStatus status_;
};

/// Convenience one-shot: spawn, wait (with optional timeout), return the
/// status. `deadline_ms < 0` waits without a deadline.
ExitStatus run_process(const std::vector<std::string>& argv,
                       const SpawnOptions& options = {},
                       double deadline_ms = -1.0);

}  // namespace mcs::common
