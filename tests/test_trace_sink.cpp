// Tests for sim/trace_sink.hpp: the binary trace codec and its rejection
// of corrupt files, the file writer and its write-failure path, and the
// engine integration that streams a full event log to disk regardless of
// the in-memory trace capacity, pinned byte for byte by a golden hash.
#include "sim/trace_sink.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "mc/taskset.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
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

TEST(TraceSink, SinkRoundTripsEventsAndNames) {
  const std::string path = temp_path("trace_roundtrip.bin");
  const std::vector<std::string> names = {"hc0", "lc1"};
  const std::vector<TraceEvent> events = sample_events();
  {
    BinaryTraceWriter sink(path, names);
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
  // More events than one write (2048 records), so both the mid-run
  // writes and the final partial flush are exercised.
  const std::string path = temp_path("trace_batches.bin");
  constexpr std::size_t kCount = 5000;
  {
    BinaryTraceWriter sink(path, {"t"});
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
    BinaryTraceWriter sink(path, names);
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
    BinaryTraceWriter sink(path, {"t"});
    TraceEvent e;
    e.task = 0;
    sink.record(e);
    sink.close();
  }
  // Chop the final record in half.
  std::vector<std::uint8_t> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 10U);
  bytes.resize(bytes.size() - 10);
  write_bytes(path, bytes);
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, UnwritablePathThrowsOnConstruction) {
  EXPECT_THROW(BinaryTraceWriter("/nonexistent-dir/trace.bin", {}),
               std::runtime_error);
}

TEST(TraceSink, CorruptRecordThrows) {
  // A kind beyond kServerSlice, or a flag bit other than hi_mode (bit 0)
  // and virtual_deadline (bit 1), marks a corrupt record: the decoder
  // rejects it instead of rendering an unknown event.
  const std::string path = temp_path("trace_corrupt.bin");
  const std::vector<std::uint8_t> header = encode_trace_header({"a"});
  TraceEvent event;
  event.time = 1.0;
  event.task = 0;
  const auto last_kind =
      static_cast<std::uint8_t>(TraceEventKind::kServerSlice);
  const auto with = [&](std::uint8_t kind, std::uint8_t flags) {
    std::vector<std::uint8_t> bytes = header;
    encode_trace_event(event, bytes);
    bytes[header.size() + 8] = kind;
    bytes[header.size() + 9] = flags;
    write_bytes(path, bytes);
  };
  const std::uint8_t corrupt[][2] = {
      {200, 0xFC}, {200, 0}, {last_kind + 1, 0}, {0, 0xFC}, {0, 4}, {0, 0x80}};
  for (const auto& [kind, flags] : corrupt) {
    with(kind, flags);
    EXPECT_THROW((void)read_binary_trace(path), std::runtime_error)
        << "kind " << int{kind} << " flags " << int{flags};
  }
  // The last kind with both flag bits set is still a valid record.
  with(last_kind, 3);
  const DecodedTrace decoded = read_binary_trace(path);
  ASSERT_EQ(decoded.events.size(), 1U);
  EXPECT_EQ(decoded.events[0].kind, TraceEventKind::kServerSlice);
  EXPECT_TRUE(decoded.events[0].hi_mode);
  EXPECT_TRUE(decoded.events[0].virtual_deadline);
  std::remove(path.c_str());
}

TEST(TraceSink, TaskCountBeyondFileThrows) {
  // A 16-byte header that claims 2^32 - 1 tasks: each name needs at least
  // its 4-byte length, so the count is rejected before it sizes the name
  // table (about 128 GiB of std::string).
  const std::string path = temp_path("trace_task_count.bin");
  std::vector<std::uint8_t> bytes = encode_trace_header({});
  ASSERT_EQ(bytes.size(), 16U);
  const std::uint32_t count = 0xFFFF'FFFFu;
  std::memcpy(bytes.data() + 12, &count, sizeof(count));
  write_bytes(path, bytes);
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  // Two empty names take exactly 8 bytes: a count of 2 decodes, 3 does
  // not.
  bytes = encode_trace_header({"", ""});
  write_bytes(path, bytes);
  EXPECT_EQ(read_binary_trace(path).task_names.size(), 2U);
  const std::uint32_t three = 3;
  std::memcpy(bytes.data() + 12, &three, sizeof(three));
  write_bytes(path, bytes);
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, WriteFailureThrowsOnClose) {
  // /dev/full fails every write with ENOSPC. With no records the header
  // sits in the stdio buffer until fclose; with 5000 the mid-run writes
  // fail first. close() must report both.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full is not available";
  for (const std::size_t records : {std::size_t{0}, std::size_t{5000}}) {
    BinaryTraceWriter writer("/dev/full", {"t"});
    TraceEvent event;
    event.task = 0;
    for (std::size_t i = 0; i < records; ++i) writer.record(event);
    EXPECT_THROW(writer.close(), std::runtime_error) << records << " records";
  }
}

TEST(TraceSink, EngineTraceBytesMatchGolden) {
  // FNV-1a of the whole file for one fixed simulation with mode switches,
  // degraded LC budgets and dispatch events. Encode and decode can agree
  // with each other and still drift from earlier files; this pins the
  // bytes themselves.
  mc::TaskSet tasks;
  tasks.add(mc::McTask::high("h0", 20.0, 45.0, 100.0));
  tasks.add(mc::McTask::high("h1", 10.0, 25.0, 80.0).with_deadline(60.0));
  tasks.add(mc::McTask::low("l0", 10.0, 50.0));
  tasks.add(mc::McTask::low("l1", 5.0, 40.0));
  SimConfig config;
  config.horizon = 20000.0;
  config.x = 0.6;
  config.seed = 9;
  config.lc_policy = LcPolicy::kDegradeHalf;
  config.exec_fraction_hi = 1.5;  // overruns, so the run switches modes
  config.trace_dispatch = true;
  config.trace_binary_path = temp_path("trace_golden.bin");
  (void)simulate(tasks, config);
  const std::vector<std::uint8_t> bytes =
      read_bytes(config.trace_binary_path);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 148750U);  // 4957 records of 8 event kinds
  EXPECT_EQ(hash, 0xc3f314911354abc7ULL);
  std::remove(config.trace_binary_path.c_str());
}

}  // namespace
}  // namespace mcs::sim
