#include "sim/trace_sink.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace mcs::sim {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordBytes = 8 + 1 + 1 + 4 + 8 + 8;

void append_raw(std::vector<std::uint8_t>& out, const void* data,
                std::size_t size) {
  if (size == 0) return;
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_value(std::vector<std::uint8_t>& out, T value) {
  append_raw(out, &value, sizeof(value));
}

/// Reads sizeof(T) bytes at `offset` (bounds-checked by the caller).
template <typename T>
T read_value(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// RAII FILE handle for the decoder.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_trace_header(
    const std::vector<std::string>& task_names) {
  std::vector<std::uint8_t> out;
  append_raw(out, kMagic, sizeof(kMagic));
  append_value(out, kVersion);
  append_value(out, static_cast<std::uint32_t>(task_names.size()));
  for (const std::string& name : task_names) {
    append_value(out, static_cast<std::uint32_t>(name.size()));
    append_raw(out, name.data(), name.size());
  }
  return out;
}

void encode_trace_event(const TraceEvent& event,
                        std::vector<std::uint8_t>& out) {
  // One staged 30-byte record, appended in a single insert: the writer
  // encodes every event of a traced run on the simulating thread, and
  // six separate vector appends per event were its hottest path. Unlike
  // resize + memcpy, insert does not zero the bytes it then overwrites.
  std::uint8_t record[kRecordBytes];
  std::memcpy(record, &event.time, 8);
  record[8] = static_cast<std::uint8_t>(event.kind);
  record[9] = static_cast<std::uint8_t>(
      (event.hi_mode ? 1U : 0U) | (event.virtual_deadline ? 2U : 0U));
  std::memcpy(record + 10, &event.task, 4);
  std::memcpy(record + 14, &event.release, 8);
  std::memcpy(record + 22, &event.value, 8);
  out.insert(out.end(), record, record + sizeof(record));
}

DecodedTrace read_binary_trace(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (file == nullptr)
    throw std::runtime_error("read_binary_trace: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), file.get());
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  if (std::ferror(file.get()) != 0)
    throw std::runtime_error("read_binary_trace: read error on " + path);

  std::size_t at = 0;
  auto need = [&](std::size_t n) {
    if (bytes.size() - at < n)
      throw std::runtime_error("read_binary_trace: truncated file " + path);
  };
  need(sizeof(kMagic) + 2 * sizeof(std::uint32_t));
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("read_binary_trace: bad magic in " + path);
  at += sizeof(kMagic);
  const auto version = read_value<std::uint32_t>(bytes, at);
  at += sizeof(std::uint32_t);
  if (version != kVersion)
    throw std::runtime_error("read_binary_trace: unsupported version in " +
                             path);
  const auto task_count = read_value<std::uint32_t>(bytes, at);
  at += sizeof(std::uint32_t);
  // Each name takes at least its u32 length, so a count the file cannot
  // hold is rejected before it sizes an allocation.
  if (task_count > (bytes.size() - at) / sizeof(std::uint32_t))
    throw std::runtime_error("read_binary_trace: truncated file " + path);

  DecodedTrace trace;
  trace.task_names.reserve(task_count);
  for (std::uint32_t i = 0; i < task_count; ++i) {
    need(sizeof(std::uint32_t));
    const auto len = read_value<std::uint32_t>(bytes, at);
    at += sizeof(std::uint32_t);
    need(len);
    trace.task_names.emplace_back(
        reinterpret_cast<const char*>(bytes.data() + at), len);
    at += len;
  }

  if ((bytes.size() - at) % kRecordBytes != 0)
    throw std::runtime_error("read_binary_trace: truncated record in " + path);
  trace.events.reserve((bytes.size() - at) / kRecordBytes);
  while (at < bytes.size()) {
    TraceEvent e;
    e.time = read_value<double>(bytes, at);
    const auto kind = read_value<std::uint8_t>(bytes, at + 8);
    const auto flags = read_value<std::uint8_t>(bytes, at + 9);
    if (kind > static_cast<std::uint8_t>(TraceEventKind::kServerSlice) ||
        (flags & ~3U) != 0)
      throw std::runtime_error("read_binary_trace: corrupt record in " +
                               path);
    e.kind = static_cast<TraceEventKind>(kind);
    e.hi_mode = (flags & 1U) != 0;
    e.virtual_deadline = (flags & 2U) != 0;
    e.task = read_value<std::uint32_t>(bytes, at + 10);
    e.release = read_value<double>(bytes, at + 14);
    e.value = read_value<double>(bytes, at + 22);
    trace.events.push_back(e);
    at += kRecordBytes;
  }
  return trace;
}

BinaryTraceWriter::BinaryTraceWriter(
    const std::string& path, const std::vector<std::string>& task_names)
    : buffer_(encode_trace_header(task_names)) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw std::runtime_error("BinaryTraceWriter: cannot open " + path);
  buffer_.reserve(buffer_.size() + (kFlushRecords + 1) * kRecordBytes);
}

BinaryTraceWriter::~BinaryTraceWriter() { finish(); }

void BinaryTraceWriter::record(const TraceEvent& event) {
  ++total_;
  encode_trace_event(event, buffer_);
  if (buffer_.size() >= kFlushRecords * kRecordBytes) flush();
}

void BinaryTraceWriter::flush() noexcept {
  if (!failed_ && !buffer_.empty() &&
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_) != buffer_.size())
    failed_ = true;
  buffer_.clear();
}

void BinaryTraceWriter::finish() noexcept {
  if (file_ == nullptr) return;
  flush();
  if (std::fclose(file_) != 0) failed_ = true;
  file_ = nullptr;
}

void BinaryTraceWriter::close() {
  finish();
  if (failed_) throw std::runtime_error("BinaryTraceWriter: write failed");
}

}  // namespace mcs::sim
