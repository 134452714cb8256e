// Binary trace file writer.
//
// The simulation thread encodes each event straight into a byte buffer
// and hands the buffer to fwrite every few thousand records, so a traced
// run starts no thread and the file is written strictly in event order:
// the output is byte-deterministic for a deterministic simulation.
//
// The binary format (host-endian, decoded offline by tools/mcs_trace):
//   header:  8-byte magic "MCSTRACE", u32 version (1), u32 task count,
//            then per task: u32 name length + raw name bytes
//   records: f64 time | u8 kind | u8 flags (bit0 hi_mode, bit1
//            virtual_deadline) | u32 task | f64 release | f64 value
// The record count is implied by the file length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace mcs::sim {

/// A fully decoded binary trace file.
struct DecodedTrace {
  std::vector<std::string> task_names;
  std::vector<TraceEvent> events;
};

/// Serializes the file header for `task_names`.
[[nodiscard]] std::vector<std::uint8_t> encode_trace_header(
    const std::vector<std::string>& task_names);

/// Appends one fixed-width event record to `out`.
void encode_trace_event(const TraceEvent& event, std::vector<std::uint8_t>& out);

/// Reads a whole binary trace file back. Throws std::runtime_error on a
/// missing file, bad magic/version, a truncated header/record, a task
/// count the file cannot hold, or a record with an unknown kind or flag
/// bit.
[[nodiscard]] DecodedTrace read_binary_trace(const std::string& path);

/// Writes a binary trace file on the caller's thread: record() encodes
/// into a buffer that goes to the file every kFlushRecords records. One
/// simulation owns one writer.
class BinaryTraceWriter {
 public:
  /// Opens `path` for writing and encodes the header. Throws
  /// std::runtime_error when the file cannot be opened.
  BinaryTraceWriter(const std::string& path,
                    const std::vector<std::string>& task_names);
  /// Closes the file if close() was not called, without reporting a
  /// failed write; call close() to learn of one.
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  /// Encodes one event; writes the buffer out once it holds
  /// kFlushRecords records.
  void record(const TraceEvent& event);

  /// Writes the buffered tail and closes the file. Idempotent. Throws
  /// std::runtime_error when any write or the close failed.
  void close();

  /// Events handed to the writer so far.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }

 private:
  void flush() noexcept;
  void finish() noexcept;  ///< close() without the failure throw

  static constexpr std::size_t kFlushRecords = 2048;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t total_ = 0;
  bool failed_ = false;
};

}  // namespace mcs::sim
