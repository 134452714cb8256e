// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the mcs libraries from the
// benchmark's own code (nothing inside the libraries is instrumented).
// The recorder is single-threaded by design: the traced run executes at
// --jobs=1, so spans nest strictly and a span's children never overlap.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// One recorded span. `parent` indexes the enclosing span (-1 at the top);
/// every span of one request (one benchmark op, or one serve request)
/// carries the same `request` id.
struct Span {
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Spans are dropped while disabled (the "spans off" composition).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or
  /// -1 when disabled.
  std::int64_t begin(std::string_view name, std::uint64_t request);
  /// Closes the span `index` returned by begin (no-op for -1).
  void end(std::int64_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Drops the recorded spans (the interned names stay).
  void clear();

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children run sequentially, so their durations add).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Summed self time (seconds) of spans named `layer` or `layer.*`.
  [[nodiscard]] double layer_self_s(std::string_view layer) const;

  /// Writes one JSON object per span (name, request, parent, start_ns,
  /// end_ns, self_ns). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t request)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
