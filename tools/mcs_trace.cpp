// mcs-trace — offline decoder for the compact binary trace files written
// by the simulator's trace writer (sim/trace_sink.hpp).
//
//   mcs-cli simulate tasks.mcs --trace-bin=run.trace
//   mcs-trace run.trace                 # one text line per event
//   mcs-trace run.trace --summary       # counts per event kind only
//
// The text rendering is byte-identical to Trace::render() over the same
// events, so a binary trace diffs cleanly against an in-memory one.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "sim/trace.hpp"
#include "sim/trace_sink.hpp"

int main(int argc, char** argv) {
  bool summary = false;
  std::string path;

  // Hand-rolled argv walk: the trace file is positional, which
  // common::Cli (options-only) rejects by design.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(
          "mcs-trace — decode a binary simulator trace\n\n"
          "usage: mcs-trace <file> [--summary]\n\n"
          "options:\n"
          "  --summary   print per-kind event counts instead of the log\n"
          "  --help      show this message\n\n"
          "The full output is the text form of Trace::render() over the\n"
          "decoded events, so it diffs cleanly against an in-memory\n"
          "trace of the same run.\n",
          stdout);
      return 0;
    }
    if (arg == "--summary") {
      summary = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mcs-trace: unknown option %s\n", arg.c_str());
      return 2;
    }
    if (!path.empty()) {
      std::fputs("mcs-trace: exactly one trace file expected\n", stderr);
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::fputs("usage: mcs-trace <file> [--summary]\n", stderr);
    return 2;
  }

  try {
    const mcs::sim::DecodedTrace trace = mcs::sim::read_binary_trace(path);
    if (summary) {
      std::map<std::string, std::size_t> counts;
      for (const mcs::sim::TraceEvent& e : trace.events)
        ++counts[std::string(mcs::sim::to_string(e.kind))];
      std::printf("%zu events, %zu tasks\n", trace.events.size(),
                  trace.task_names.size());
      for (const auto& [kind, count] : counts)
        std::printf("  %-16s %zu\n", kind.c_str(), count);
      return 0;
    }
    const std::string text = mcs::sim::render_trace_text(
        trace.task_names, trace.events, trace.events.size());
    std::fputs(text.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcs-trace: %s\n", e.what());
    return 1;
  }
}
