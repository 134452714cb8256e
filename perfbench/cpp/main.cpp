// Benchmark entry point: runs one workload and prints its result as one JSON
// line (the last line of stdout). Diagnostics go to stderr.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--server PATH] [--setup-only 1]
//
// With --setup-only 1 a batch workload stops where its timed phase would
// begin and prints only its set-up time in seconds.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/thread_pool.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0.0))
        return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else if (key == "--server") {
      options->server_binary = value;
    } else if (key == "--setup-only") {
      if (value != "0" && value != "1") return false;
      options->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse_args(argc, argv, &options)) {
    std::fputs("usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--server PATH] "
               "[--setup-only 1]\n",
               stderr);
    return 2;
  }
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) options.bench_binary.assign(exe, static_cast<std::size_t>(len));
  mcs::common::set_default_jobs(0);  // batch workloads run at nproc
  perfbench::Tracer tracer;
  perfbench::Result result;
  try {
    if (options.workload == "paper_measure") {
      result = perfbench::run_paper_measure(options, tracer);
    } else if (options.workload == "design_sweep") {
      result = perfbench::run_design_sweep(options, tracer);
    } else if (options.workload == "serve_churn") {
      result = perfbench::run_serve_churn(options, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.setup_only) {
    std::printf("%.17g\n", result.metrics.at(0).value);
    return 0;
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    if (!tracer.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.spans().size(),
                 path.c_str());
  }
  for (const std::string& note : result.notes)
    std::fprintf(stderr, "%s\n", note.c_str());
  std::fprintf(stderr, "digest %016llx\n",
               static_cast<unsigned long long>(result.digest));
  std::printf("%s\n", perfbench::render_json(result).c_str());
  return 0;
}
