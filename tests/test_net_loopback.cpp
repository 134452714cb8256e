// Loopback socket tests for the net transport and the shared-session
// admission service behind it.
//
// The headline contract (ISSUE 9): N concurrent clients multiplex over
// ONE ServeSession, the server handles request lines in arrival order,
// replies leave per connection in request order, and the service's
// behaviour equals the --script replay of the serialized line order —
// byte for byte. The lock-step test drives an interleaved two-client
// schedule and compares every network reply against a fresh ServeSession
// replaying the same serialized lines; the soak test hammers the server
// from four unsynchronized clients and checks per-connection FIFO plus a
// deterministic final state.
#include "common/net.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>

#include "core/serve.hpp"
#include "core/serve_net.hpp"

namespace mcs {
namespace {

// ---------------------------------------------------------------------------
// LineBuffer framing

TEST(LineBuffer, FramesLinesAcrossFeeds) {
  common::net::LineBuffer buf;
  std::string line;
  EXPECT_TRUE(buf.feed("ab", 2));
  EXPECT_FALSE(buf.next(&line));
  EXPECT_TRUE(buf.feed("c\nde\nf", 6));
  ASSERT_TRUE(buf.next(&line));
  EXPECT_EQ(line, "abc");
  ASSERT_TRUE(buf.next(&line));
  EXPECT_EQ(line, "de");
  EXPECT_FALSE(buf.next(&line));
  EXPECT_EQ(buf.tail(), "f");
}

TEST(LineBuffer, StripsCrlfAndAllowsEmptyLines) {
  common::net::LineBuffer buf;
  std::string line;
  ASSERT_TRUE(buf.feed("one\r\n\ntwo\n", 10));
  ASSERT_TRUE(buf.next(&line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(buf.next(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buf.next(&line));
  EXPECT_EQ(line, "two");
}

TEST(LineBuffer, OverflowsOnUnterminatedTailBeyondBound) {
  common::net::LineBuffer buf(8);
  std::string line;
  EXPECT_TRUE(buf.feed("12345678", 8));  // exactly at the bound
  EXPECT_FALSE(buf.overflowed());
  EXPECT_FALSE(buf.feed("9", 1));
  EXPECT_TRUE(buf.overflowed());
  EXPECT_FALSE(buf.next(&line));
  // Complete lines inside the bound never overflow, however many.
  common::net::LineBuffer ok(8);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ok.feed("12345\n", 6));
    ASSERT_TRUE(ok.next(&line));
    EXPECT_EQ(line, "12345");
  }
  EXPECT_FALSE(ok.overflowed());
}

// ---------------------------------------------------------------------------
// Syscall wrappers

TEST(NetWrappers, WriteToClosedPeerIsEpipeNotSigpipe) {
  // Regression: write_retry used plain write(2) and the serve process
  // never ignored SIGPIPE, so writing to a peer that had already closed
  // killed the whole server. Pre-fix this test dies with SIGPIPE; now the
  // wrapper reports EPIPE and the caller drops the connection normally.
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  common::net::close_retry(sp[1]);
  errno = 0;
  const long r = common::net::write_retry(sp[0], "x", 1);
  EXPECT_EQ(r, -1);
  EXPECT_EQ(errno, EPIPE);
  common::net::close_retry(sp[0]);
}

// ---------------------------------------------------------------------------
// Loopback harness

/// Blocking line-oriented client over one TCP connection, with a receive
/// timeout so a server bug fails the test instead of hanging it.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port)
      : fd_(common::net::connect_tcp("127.0.0.1", port)) {
    timeval tv{10, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~LineClient() { common::net::close_retry(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const long w = common::net::write_retry(fd_, framed.data() + sent,
                                              framed.size() - sent);
      ASSERT_GT(w, 0) << "write failed for: " << line;
      sent += static_cast<std::size_t>(w);
    }
  }

  /// Next reply line; empty + eof() when the server closed the
  /// connection.
  std::string recv_line() {
    std::string line;
    while (!buf_.next(&line)) {
      char chunk[1024];
      const long r = common::net::read_retry(fd_, chunk, sizeof chunk);
      if (r <= 0) {
        eof_ = true;
        return "";
      }
      buf_.feed(chunk, static_cast<std::size_t>(r));
    }
    return line;
  }

  [[nodiscard]] bool eof() const { return eof_; }
  [[nodiscard]] bool at_eof_now() {
    char chunk[64];
    const long r = common::net::read_retry(fd_, chunk, sizeof chunk);
    if (r == 0) eof_ = true;
    return r == 0;
  }

 private:
  int fd_;
  common::net::LineBuffer buf_;
  bool eof_ = false;
};

/// ServeSession + NetServeFront + LineServer on an ephemeral loopback
/// port, run() on a background thread; stopped and joined on teardown.
class ServeHarness {
 public:
  explicit ServeHarness(core::ServeSession::Config session_config = {},
                        common::net::ServerConfig net_config = {})
      : session_(session_config),
        front_(&session_),
        server_(net_config,
                [this](std::uint64_t id, const std::string& line) {
                  return front_.on_line(id, line);
                }),
        thread_([this] { server_.run(); }) {}

  ~ServeHarness() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] common::net::LineServer& server() { return server_; }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  core::ServeSession session_;
  core::NetServeFront front_;
  common::net::LineServer server_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Transcript equivalence

TEST(NetLoopback, LockstepInterleaveMatchesScriptReplay) {
  ServeHarness harness;
  LineClient a(harness.port());
  LineClient b(harness.port());

  // An interleaved two-client schedule over shared state: B sees the
  // task A admitted (duplicate rejected), A sees B's departure. Every
  // silent line is immediately followed by a ping barrier from the same
  // client so lock-step order stays enforced.
  struct Step {
    LineClient* client;
    std::string line;
  };
  const std::vector<Step> schedule = {
      {&a, "version"},
      {&b, "admit name=video crit=HC wcet_lo=2 wcet_hi=4 period=20 "
           "acet=1.5 sigma=0.3"},
      {&a, "admit name=audio crit=LC wcet_lo=1 period=10"},
      {&b, "admit name=video crit=LC wcet_lo=1 period=10"},
      {&a, "record name=video time=1.6"},
      {&a, "ping"},
      {&b, "stats"},
      {&a, "admit name=hog crit=LC wcet_lo=999x period=10"},
      {&b, "remove name=audio"},
      {&a, "stats"},
      {&b, "quit"},
      {&a, "quit"},
  };

  // The oracle: a fresh session replaying the serialized line order. The
  // transport maps `quit` to the same "ok quit" reply the session gives,
  // so the transcripts stay comparable through both disconnects.
  core::ServeSession replay;
  for (const Step& step : schedule) {
    step.client->send_line(step.line);
    const std::string expected = replay.handle_line(step.line);
    if (expected.empty()) continue;  // silent: next step is the barrier
    EXPECT_EQ(step.client->recv_line(), expected) << "line: " << step.line;
  }
  // Both connections were closed by their quit.
  EXPECT_TRUE(a.at_eof_now());
  EXPECT_TRUE(b.at_eof_now());
}

TEST(NetLoopback, ConcurrentSoakKeepsPerConnectionFifo) {
  ServeHarness harness;
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&harness, &failures, c] {
      LineClient client(harness.port());
      for (int round = 0; round < kRounds; ++round) {
        // Tiny utilization so every admit succeeds regardless of the
        // other clients; distinct names avoid cross-client clashes.
        const std::string name = std::string("c")
                                     .append(std::to_string(c))
                                     .append("_r")
                                     .append(std::to_string(round));
        client.send_line("admit name=" + name +
                         " crit=LC wcet_lo=0.001 period=100");
        client.send_line("ping");
        client.send_line("remove name=" + name);
        // Per-connection FIFO: the three replies arrive in exactly this
        // order whatever the other clients are doing.
        const std::string r1 = client.recv_line();
        const std::string r2 = client.recv_line();
        const std::string r3 = client.recv_line();
        if (r1.rfind("ok admit " + name + " ", 0) != 0 || r2 != "ok ping" ||
            r3.rfind("ok remove " + name + " ", 0) != 0) {
          failures[static_cast<std::size_t>(c)] =
              "round " + std::to_string(round) + ": [" + r1 + "] [" + r2 +
              "] [" + r3 + "]";
          return;
        }
      }
      client.send_line("quit");
      (void)client.recv_line();
    });
  }
  for (std::thread& w : workers) w.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;

  // Every client removed what it admitted: the shared session ends empty,
  // having really seen all 3 * kClients * kRounds + kClients lines.
  LineClient control(harness.port());
  control.send_line("stats");
  EXPECT_EQ(control.recv_line().rfind("stats resident=0 ", 0), 0u);
  EXPECT_GE(harness.server().stats().lines,
            static_cast<std::uint64_t>(3 * kClients * kRounds));
}

TEST(NetLoopback, QuitClosesOnlyTheRequestingConnection) {
  ServeHarness harness;
  LineClient a(harness.port());
  LineClient b(harness.port());
  a.send_line("admit name=shared crit=LC wcet_lo=1 period=10");
  EXPECT_EQ(a.recv_line(), "ok admit shared id=1 x=1 resident=1");
  a.send_line("quit");
  EXPECT_EQ(a.recv_line(), "ok quit");
  EXPECT_TRUE(a.at_eof_now());
  // The session survived A's quit: B still sees the resident task.
  b.send_line("stats");
  EXPECT_EQ(b.recv_line().rfind("stats resident=1 ", 0), 0u);
  b.send_line("remove name=shared");
  EXPECT_EQ(b.recv_line(), "ok remove shared id=1 resident=0");
}

TEST(NetLoopback, ShutdownStopsTheServerAfterFlushing) {
  ServeHarness harness;
  LineClient client(harness.port());
  client.send_line("ping");
  EXPECT_EQ(client.recv_line(), "ok ping");
  client.send_line("shutdown");
  // The reply is flushed before the server exits its loop.
  EXPECT_EQ(client.recv_line(), "ok shutdown");
  harness.join();  // run() returned on its own — no stop() needed
  EXPECT_TRUE(client.at_eof_now());
}

TEST(NetLoopback, MalformedLinesEarnErrAndKeepTheConnection) {
  ServeHarness harness;
  LineClient client(harness.port());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"admit name=a crit=LC wcet_lo=nan period=10",
       "err invalid number for 'wcet_lo'"},
      {"admit", "err admit requires name= crit= wcet_lo= period="},
      {"frobnicate", "err unknown request 'frobnicate'"},
      {"remove id=zero", "err invalid id 'zero'"},
      {"tick now", "err tick takes no arguments"},
  };
  for (const auto& [line, expected] : cases) {
    client.send_line(line);
    EXPECT_EQ(client.recv_line(), expected) << line;
  }
  // The connection survived all of it.
  client.send_line("ping");
  EXPECT_EQ(client.recv_line(), "ok ping");
}

TEST(NetLoopback, OverlongLineIsRefusedAndDropped) {
  common::net::ServerConfig net_config;
  net_config.max_line = 64;
  ServeHarness harness({}, net_config);
  LineClient client(harness.port());
  client.send_line(std::string(500, 'x'));
  EXPECT_EQ(client.recv_line(), "err line too long");
  EXPECT_TRUE(client.at_eof_now());
  // The server itself is fine; a fresh connection works.
  LineClient next(harness.port());
  next.send_line("ping");
  EXPECT_EQ(next.recv_line(), "ok ping");
  EXPECT_EQ(harness.server().stats().overlong_lines, 1u);
}

TEST(NetLoopback, IdleConnectionsAreReaped) {
  common::net::ServerConfig net_config;
  net_config.idle_timeout_ms = 60.0;
  ServeHarness harness({}, net_config);
  LineClient idle(harness.port());
  idle.send_line("ping");
  EXPECT_EQ(idle.recv_line(), "ok ping");
  // No further requests: the reaper disconnects us.
  EXPECT_TRUE(idle.at_eof_now());
  EXPECT_EQ(harness.server().stats().idle_disconnects, 1u);
}

TEST(NetLoopback, ConnectionLimitRefusesExcessClients) {
  common::net::ServerConfig net_config;
  net_config.max_connections = 1;
  ServeHarness harness({}, net_config);
  LineClient first(harness.port());
  first.send_line("ping");
  EXPECT_EQ(first.recv_line(), "ok ping");  // ensures first is registered
  LineClient second(harness.port());
  EXPECT_EQ(second.recv_line(), "err server at connection limit");
  EXPECT_TRUE(second.at_eof_now());
  EXPECT_EQ(harness.server().stats().refused, 1u);
  // The admitted client is unaffected.
  first.send_line("ping");
  EXPECT_EQ(first.recv_line(), "ok ping");
}

TEST(NetLoopback, AbruptClientResetDoesNotKillTheServer) {
  // A hostile client floods requests, never reads a reply, then resets
  // the connection (SO_LINGER 0 close sends RST) while replies are still
  // in flight. The server must shed that connection and keep serving —
  // pre-fix the dead-peer write raised SIGPIPE and took the process down.
  ServeHarness harness;
  {
    const int fd = common::net::connect_tcp("127.0.0.1", harness.port());
    const int small = 4096;  // starve the reply path so output queues up
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
    std::string burst;
    for (int i = 0; i < 20000; ++i) burst += "version\n";
    std::size_t sent = 0;
    while (sent < burst.size()) {
      const long w = common::net::write_retry(fd, burst.data() + sent,
                                              burst.size() - sent);
      ASSERT_GT(w, 0);
      sent += static_cast<std::size_t>(w);
    }
    // Let the server ingest the burst and wedge on the unread replies.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    linger lg{1, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    common::net::close_retry(fd);  // RST with queued data both ways
  }
  // The server survived and a fresh connection is served normally.
  LineClient next(harness.port());
  next.send_line("ping");
  EXPECT_EQ(next.recv_line(), "ok ping");
}

TEST(NetLoopback, StopFromAnotherThreadUnblocksRun) {
  ServeHarness harness;
  // No clients at all: run() is parked in poll(-1); stop() must wake it
  // via the self-pipe. The harness destructor would hang otherwise — do
  // it explicitly so the test, not the teardown, owns the assertion.
  harness.server().stop();
  harness.join();
  SUCCEED();
}

TEST(NetLoopback, MulticoreServeOverTheWire) {
  core::ServeSession::Config session_config;
  session_config.cores = 2;
  session_config.placement = sched::PartitionHeuristic::kWorstFit;
  ServeHarness harness(session_config);
  LineClient client(harness.port());
  client.send_line("version");
  EXPECT_EQ(client.recv_line(),
            "ok version mcs-serve/1 cores=2 backend=utilization");
  client.send_line("admit name=a crit=LC wcet_lo=6 period=10");
  EXPECT_EQ(client.recv_line(), "ok admit a id=1 core=0 x=1 resident=1");
  client.send_line("admit name=b crit=LC wcet_lo=6 period=10");
  EXPECT_EQ(client.recv_line(), "ok admit b id=2 core=1 x=1 resident=2");
}

}  // namespace
}  // namespace mcs
