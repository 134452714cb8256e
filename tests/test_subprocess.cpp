// Tests for common/subprocess.hpp: exit-code and signal capture, deadline
// kills and stdout redirection. Its remaining clients are the benchmark's
// serve_churn workload (an `mcs-cli serve` child per run) and the cold
// set-up runs the benchmark report times as fresh child processes.
//
// The SubprocessRegression suite pins three bugfixes with deterministic
// syscall interposition: this binary defines its own `waitpid` and `kill`
// (executable symbols preempt libc at link time) that inject EINTR or
// fake still-running results on a countdown, then pass through to the
// real syscalls. Each test fails on the pre-fix code:
//   * poll() once treated an EINTR'd waitpid as "child finished, unknown
//     status" — a stray signal to the parent corrupted the exit report;
//   * wait_deadline() once flagged timed_out even when the child exited
//     between the deadline check and the SIGKILL, mislabelling a real
//     exit status as a timeout;
//   * kill() on an own-group child once signalled the group AND the
//     leader, delivering counted signals twice to the leader.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/subprocess.hpp"

namespace {

// --- syscall interposition ------------------------------------------------

/// Remaining waitpid calls that fail with EINTR before passing through.
std::atomic<int> g_waitpid_eintr{0};
/// Remaining waitpid calls that report "still running" (return 0).
std::atomic<int> g_waitpid_fake_running{0};
/// When true, every kill() is recorded (and still delivered).
std::atomic<bool> g_record_kills{false};
std::mutex g_kill_mutex;
std::vector<std::pair<pid_t, int>> g_kill_log;

std::vector<std::pair<pid_t, int>> take_kill_log() {
  const std::lock_guard<std::mutex> lock(g_kill_mutex);
  return std::exchange(g_kill_log, {});
}

}  // namespace

extern "C" pid_t waitpid(pid_t pid, int* status, int options) {
  int remaining = g_waitpid_eintr.load();
  while (remaining > 0 &&
         !g_waitpid_eintr.compare_exchange_weak(remaining, remaining - 1)) {
  }
  if (remaining > 0) {
    errno = EINTR;
    return -1;
  }
  remaining = g_waitpid_fake_running.load();
  while (remaining > 0 && !g_waitpid_fake_running.compare_exchange_weak(
                              remaining, remaining - 1)) {
  }
  if (remaining > 0) return 0;
  return static_cast<pid_t>(
      ::syscall(SYS_wait4, pid, status, options, nullptr));
}

// __THROW matches glibc's own declaration (signal.h) — the exception
// specifications must agree for the interposition to compile.
extern "C" int kill(pid_t pid, int sig) __THROW {
  if (g_record_kills.load()) {
    const std::lock_guard<std::mutex> lock(g_kill_mutex);
    g_kill_log.emplace_back(pid, sig);
  }
  return static_cast<int>(::syscall(SYS_kill, pid, sig));
}

namespace mcs::common {
namespace {

TEST(Subprocess, CapturesExitCode) {
  const ExitStatus status = run_process({"sh", "-c", "exit 3"});
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 3);
  EXPECT_FALSE(status.signaled);
  EXPECT_FALSE(status.timed_out);
  EXPECT_FALSE(status.success());
  EXPECT_EQ(status.describe(), "exit 3");
}

TEST(Subprocess, CleanExitIsSuccess) {
  const ExitStatus status = run_process({"true"});
  EXPECT_TRUE(status.success());
}

TEST(Subprocess, MissingCommandIs127) {
  const ExitStatus status =
      run_process({"/nonexistent/definitely-not-a-binary"});
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 127);
}

TEST(Subprocess, CapturesTerminatingSignal) {
  const ExitStatus status = run_process({"sh", "-c", "kill -KILL $$"});
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
  EXPECT_FALSE(status.success());
  EXPECT_EQ(status.describe(), "signal 9");
}

TEST(Subprocess, DeadlineKillsHungChild) {
  const ExitStatus status =
      run_process({"sh", "-c", "sleep 30"}, {}, /*deadline_ms=*/200.0);
  EXPECT_TRUE(status.timed_out);
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
  EXPECT_FALSE(status.success());
  EXPECT_EQ(status.describe(), "signal 9 (timeout)");
}

TEST(Subprocess, RedirectsStdoutToFile) {
  const std::string path = "subprocess_stdout_test.txt";
  SpawnOptions options;
  options.stdout_path = path;
  const ExitStatus status =
      run_process({"sh", "-c", "printf hello"}, options);
  EXPECT_TRUE(status.success());
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  (void)std::remove(path.c_str());
}

TEST(Subprocess, PollReportsRunningThenFinished) {
  Subprocess child = Subprocess::spawn({"sh", "-c", "sleep 0.2"});
  EXPECT_FALSE(child.finished());
  const ExitStatus status = child.wait_deadline(-1.0);
  EXPECT_TRUE(child.finished());
  EXPECT_TRUE(status.success());
  EXPECT_TRUE(child.poll());  // idempotent once finished
}

TEST(Subprocess, EmptyHandleIsFinished) {
  Subprocess child;
  EXPECT_TRUE(child.poll());
  EXPECT_FALSE(child.status().success());
}

// --- interposed regression tests ------------------------------------------

TEST(SubprocessRegression, PollRetriesWaitpidOnEintr) {
  Subprocess child = Subprocess::spawn({"sh", "-c", "exit 5"});
  // The next three waitpid calls are interrupted by a (simulated) signal.
  // The pre-fix poll() took the first EINTR as "finished, unknown status";
  // the fixed one retries until it reaps the real exit code.
  g_waitpid_eintr.store(3);
  while (!child.poll()) usleep(1000);
  EXPECT_EQ(g_waitpid_eintr.load(), 0) << "injection never reached poll()";
  EXPECT_TRUE(child.status().exited);
  EXPECT_EQ(child.status().exit_code, 5);
  EXPECT_FALSE(child.status().signaled);
  EXPECT_EQ(child.status().describe(), "exit 5");
}

TEST(SubprocessRegression, DeadlineRaceKeepsRealExitStatus) {
  Subprocess child = Subprocess::spawn({"sh", "-c", "exit 5"});
  // Fake "still running" long enough that wait_deadline's 50 ms deadline
  // expires while the child has in truth already exited — exactly the
  // check-then-kill race. The pre-fix code SIGKILLed the zombie, reaped
  // the genuine exit-5 status, and still stamped timed_out on it.
  g_waitpid_fake_running.store(200);
  const ExitStatus status = child.wait_deadline(50.0);
  g_waitpid_fake_running.store(0);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 5);
  EXPECT_FALSE(status.timed_out) << "real exit mislabelled as timeout";
  EXPECT_EQ(status.describe(), "exit 5");
}

TEST(SubprocessRegression, KillDeliversOncePerProcessWithOwnGroup) {
  Subprocess child = Subprocess::spawn({"sh", "-c", "sleep 30"});
  g_record_kills.store(true);
  child.kill(SIGTERM);
  g_record_kills.store(false);
  const auto log = take_kill_log();
  // One group delivery; the pre-fix code followed it with a direct
  // kill(pid) that reached the leader a second time.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, -child.pid());
  EXPECT_EQ(log[0].second, SIGTERM);
  const ExitStatus status = child.wait_deadline(5000.0);
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGTERM);
}

TEST(SubprocessRegression, KillTargetsTheChildWithoutOwnGroup) {
  SpawnOptions options;
  options.new_process_group = false;
  Subprocess child = Subprocess::spawn({"sh", "-c", "sleep 30"}, options);
  g_record_kills.store(true);
  child.kill(SIGTERM);
  g_record_kills.store(false);
  const auto log = take_kill_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, child.pid());
  EXPECT_EQ(log[0].second, SIGTERM);
  const ExitStatus status = child.wait_deadline(5000.0);
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGTERM);
}

TEST(SubprocessRegression, KillAfterFinishIsANoOp) {
  Subprocess child = Subprocess::spawn({"true"});
  (void)child.wait_deadline(-1.0);
  g_record_kills.store(true);
  child.kill(SIGKILL);
  g_record_kills.store(false);
  EXPECT_TRUE(take_kill_log().empty());
}

}  // namespace
}  // namespace mcs::common
