// Asynchronous binary trace sink.
//
// Large-scale simulators (e.g. the gacspp COutput design the ROADMAP
// cites) decouple event production from I/O with a buffered consumer
// thread: the simulation thread appends events to a small batch and hands
// full batches to a bounded queue; a single writer thread drains the
// queue and serializes a compact fixed-width binary record per event. The
// simulation never blocks on disk unless it outruns the writer by the
// whole queue depth, and the file is written strictly in event order, so
// the output is byte-deterministic for a deterministic simulation.
//
// The binary format (host-endian, decoded offline by tools/mcs_trace):
//   header:  8-byte magic "MCSTRACE", u32 version (1), u32 task count,
//            then per task: u32 name length + raw name bytes
//   records: f64 time | u8 kind | u8 flags (bit0 hi_mode, bit1
//            virtual_deadline) | u32 task | f64 release | f64 value
// The record count is implied by the file length.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/trace.hpp"

namespace mcs::sim {

/// Bounded multi-producer/multi-consumer FIFO with close/abort shutdown
/// semantics. push() blocks while the queue is full; pop() blocks while
/// it is empty and still open. close() ends the stream gracefully
/// (consumers drain the backlog, then see nullopt); abort() discards the
/// backlog and wakes every blocked thread immediately (the failure path).
template <typename T>
class BoundedQueue {
 public:
  /// `capacity` >= 1 enforced.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room, then enqueues. Returns false (dropping
  /// `item`) when the queue was closed or aborted instead.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return items_.size() < capacity_ || closed_ || aborted_;
    });
    if (closed_ || aborted_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available, the queue is closed and drained,
  /// or the queue is aborted. Returns nullopt in the latter two cases.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] {
      return !items_.empty() || closed_ || aborted_;
    });
    if (aborted_ || items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Graceful end of stream: no further push() succeeds; pop() drains the
  /// backlog before reporting nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Failure shutdown: discards the backlog and wakes every blocked
  /// pusher and popper. Idempotent.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
      items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool aborted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_;
  }

  /// Items currently buffered (for tests; racy by nature otherwise).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

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
/// missing file, bad magic/version, or a truncated header/record.
[[nodiscard]] DecodedTrace read_binary_trace(const std::string& path);

/// Consumer-thread sink: record() on the simulation thread, bytes on disk
/// from a dedicated writer thread. Not thread-safe on the producer side
/// (one simulation owns one sink).
class AsyncTraceSink {
 public:
  /// Opens `path` for writing and starts the writer thread. Throws
  /// std::runtime_error when the file cannot be opened.
  AsyncTraceSink(const std::string& path, std::vector<std::string> task_names);
  ~AsyncTraceSink();

  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;

  /// Enqueues one event (batched; may block when the writer is behind).
  void record(const TraceEvent& event);

  /// Flushes the tail batch, stops the writer thread and closes the file.
  /// Idempotent. Throws std::runtime_error when any write failed.
  void close();

  /// Events handed to the sink so far.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }

 private:
  void finish() noexcept;  ///< close() without the failure throw

  static constexpr std::size_t kBatchEvents = 1024;
  std::vector<TraceEvent> batch_;
  BoundedQueue<std::vector<TraceEvent>> queue_{8};
  std::thread writer_;
  std::uint64_t total_ = 0;
  bool closed_ = false;
  std::atomic<bool> write_failed_{false};
};

}  // namespace mcs::sim
