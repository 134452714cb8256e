// Tests for sim/trace_sink.hpp: the bounded queue's close/abort shutdown
// semantics, the binary trace codec, the asynchronous file sink, and the
// engine integration that streams a full event log to disk regardless of
// the in-memory trace capacity.
#include "sim/trace_sink.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mc/taskset.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> events;
  TraceEvent release;
  release.time = 0.0;
  release.kind = TraceEventKind::kRelease;
  release.task = 0;
  events.push_back(release);
  TraceEvent dispatch;
  dispatch.time = 1.25;
  dispatch.kind = TraceEventKind::kDispatch;
  dispatch.task = 1;
  dispatch.hi_mode = true;
  dispatch.virtual_deadline = false;
  dispatch.release = 0.5;
  dispatch.value = 100.5;
  events.push_back(dispatch);
  TraceEvent mode;
  mode.time = 2.5;
  mode.kind = TraceEventKind::kModeSwitchLo;
  mode.task = kNoTraceTask;  // system event: no task attached
  events.push_back(mode);
  TraceEvent vd;
  vd.time = 3.75;
  vd.kind = TraceEventKind::kDispatch;
  vd.task = 0;
  vd.hi_mode = false;
  vd.virtual_deadline = true;
  vd.release = 3.0;
  vd.value = 53.0;
  events.push_back(vd);
  return events;
}

void expect_events_equal(const std::vector<TraceEvent>& got,
                         const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].time, want[i].time) << "event " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "event " << i;
    EXPECT_EQ(got[i].task, want[i].task) << "event " << i;
    EXPECT_EQ(got[i].hi_mode, want[i].hi_mode) << "event " << i;
    EXPECT_EQ(got[i].virtual_deadline, want[i].virtual_deadline)
        << "event " << i;
    EXPECT_DOUBLE_EQ(got[i].release, want[i].release) << "event " << i;
    EXPECT_DOUBLE_EQ(got[i].value, want[i].value) << "event " << i;
  }
}

TEST(BoundedQueue, FifoOrderWithinCapacity) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
}

TEST(BoundedQueue, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_TRUE(queue.push(7));  // would deadlock if capacity stayed 0
  EXPECT_EQ(queue.pop(), std::optional<int>(7));
}

TEST(BoundedQueue, CloseDrainsBacklogThenReportsEndOfStream) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(10));
  EXPECT_TRUE(queue.push(11));
  queue.close();
  EXPECT_FALSE(queue.push(12));  // closed: rejected, not blocked
  EXPECT_EQ(queue.pop(), std::optional<int>(10));
  EXPECT_EQ(queue.pop(), std::optional<int>(11));
  EXPECT_EQ(queue.pop(), std::nullopt);  // drained
  EXPECT_FALSE(queue.aborted());
}

TEST(BoundedQueue, AbortDiscardsBacklogImmediately) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.abort();
  EXPECT_TRUE(queue.aborted());
  EXPECT_EQ(queue.size(), 0U);
  EXPECT_EQ(queue.pop(), std::nullopt);  // backlog gone, no block
  EXPECT_FALSE(queue.push(3));
  queue.abort();  // idempotent
  EXPECT_TRUE(queue.aborted());
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread pusher([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until the pop below
    second_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  pusher.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, AbortWakesBlockedPusher) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> woke{false};
  std::thread pusher([&] {
    EXPECT_FALSE(queue.push(2));  // full queue; abort must wake + reject
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  pusher.join();
  EXPECT_TRUE(woke.load());
}

TEST(BoundedQueue, AbortWakesBlockedPopper) {
  BoundedQueue<int> queue(1);
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_EQ(queue.pop(), std::nullopt);  // empty queue; abort wakes it
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  popper.join();
  EXPECT_TRUE(woke.load());
}

TEST(TraceSink, SinkRoundTripsEventsAndNames) {
  const std::string path = temp_path("trace_roundtrip.bin");
  const std::vector<std::string> names = {"hc0", "lc1"};
  const std::vector<TraceEvent> events = sample_events();
  {
    AsyncTraceSink sink(path, names);
    for (const TraceEvent& e : events) sink.record(e);
    EXPECT_EQ(sink.total_recorded(), events.size());
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  EXPECT_EQ(decoded.task_names, names);
  expect_events_equal(decoded.events, events);
  std::remove(path.c_str());
}

TEST(TraceSink, RoundTripSpansManyBatches) {
  // More events than one producer batch (1024), so the queue handoff and
  // the final partial-batch flush are both exercised.
  const std::string path = temp_path("trace_batches.bin");
  constexpr std::size_t kCount = 5000;
  {
    AsyncTraceSink sink(path, {"t"});
    for (std::size_t i = 0; i < kCount; ++i) {
      TraceEvent e;
      e.time = static_cast<double>(i) * 0.5;
      e.kind = (i % 2 == 0) ? TraceEventKind::kRelease
                            : TraceEventKind::kComplete;
      e.task = 0;
      sink.record(e);
    }
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  ASSERT_EQ(decoded.events.size(), kCount);
  for (std::size_t i = 0; i < kCount; i += 977) {
    EXPECT_DOUBLE_EQ(decoded.events[i].time, static_cast<double>(i) * 0.5);
    EXPECT_EQ(decoded.events[i].kind,
              (i % 2 == 0) ? TraceEventKind::kRelease
                           : TraceEventKind::kComplete);
  }
  std::remove(path.c_str());
}

TEST(TraceSink, DecodedTraceRendersLikeInMemoryTrace) {
  // The decoder and Trace::render() share render_trace_text, so a decoded
  // file must render byte-identically to the equivalent in-memory trace.
  const std::vector<std::string> names = {"hc0", "lc1"};
  const std::vector<TraceEvent> events = sample_events();
  Trace trace(events.size());
  trace.set_task_names(names);
  for (const TraceEvent& e : events) trace.record(e);
  const std::string path = temp_path("trace_render.bin");
  {
    AsyncTraceSink sink(path, names);
    for (const TraceEvent& e : events) sink.record(e);
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  EXPECT_EQ(render_trace_text(decoded.task_names, decoded.events,
                              decoded.events.size()),
            trace.render());
  std::remove(path.c_str());
}

TEST(TraceSink, EngineStreamsFullLogIndependentOfCapacity) {
  // The binary sink must see *every* event even when the in-memory trace
  // is truncated (or off entirely), and the streamed prefix must match
  // the in-memory events exactly.
  mc::TaskSet tasks;
  mc::McTask h = mc::McTask::high("h", 20.0, 30.0, 100.0);
  tasks.add(h);
  tasks.add(mc::McTask::low("l", 10.0, 50.0));

  SimConfig full_config;
  full_config.horizon = 2000.0;
  full_config.trace_capacity = 1 << 20;  // large enough to store everything
  full_config.trace_binary_path = temp_path("trace_full.bin");
  const SimResult full = simulate(tasks, full_config);
  const DecodedTrace full_decoded =
      read_binary_trace(full_config.trace_binary_path);
  EXPECT_EQ(full_decoded.task_names, full.trace.task_names());
  EXPECT_EQ(full_decoded.events.size(), full.trace.total_recorded());
  expect_events_equal(full_decoded.events, full.trace.events());

  // Same run with the in-memory trace off: the file must be identical.
  SimConfig off_config = full_config;
  off_config.trace_capacity = 0;
  off_config.trace_binary_path = temp_path("trace_off.bin");
  const SimResult off = simulate(tasks, off_config);
  EXPECT_EQ(off.trace.total_recorded(), 0U);
  const DecodedTrace off_decoded =
      read_binary_trace(off_config.trace_binary_path);
  expect_events_equal(off_decoded.events, full_decoded.events);

  std::remove(full_config.trace_binary_path.c_str());
  std::remove(off_config.trace_binary_path.c_str());
}

TEST(TraceSink, MissingFileThrows) {
  EXPECT_THROW((void)read_binary_trace(temp_path("nonexistent.bin")),
               std::runtime_error);
}

TEST(TraceSink, BadMagicThrows) {
  const std::string path = temp_path("trace_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACEFILE___________";
  }
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, TruncatedRecordThrows) {
  const std::string path = temp_path("trace_truncated.bin");
  {
    AsyncTraceSink sink(path, {"t"});
    TraceEvent e;
    e.task = 0;
    sink.record(e);
    sink.close();
  }
  // Chop the final record in half.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 10U);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  }
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, UnwritablePathThrowsOnConstruction) {
  EXPECT_THROW(AsyncTraceSink("/nonexistent-dir/trace.bin", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace mcs::sim
