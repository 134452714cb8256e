// Wall-clock scaling benchmark for the deterministic parallel-evaluation
// layer (common/thread_pool.hpp), in three sections:
//
//  1. Table II Chebyshev-bound sweep at increasing --jobs counts (one flat
//     loop over every (kernel, sample) pair of the five campaigns).
//  2. measure_kernel's per-sample loop at increasing --jobs counts (the
//     Fig. 1 path: one kernel through the same flat loop).
//  3. A chunked million-item parallel_map at several grain sizes per
//     --jobs count, isolating the queue-dispatch overhead that
//     parallel_map_chunked exists to amortize.
//
// Every section verifies that each configuration's result hash is
// bit-identical to the serial run; exit status is nonzero on any
// mismatch, so this doubles as a determinism smoke test on any machine
// it is benchmarked on.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/measurement.hpp"
#include "apps/registry.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "exp/table2.hpp"

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
};

/// FNV-1a over every measured overrun probability in the Table II data.
std::uint64_t result_hash(const mcs::exp::Table2Data& data) {
  Fnv f;
  f.mix(data.applications.size());
  for (const mcs::exp::Table2Row& row : data.rows) {
    f.mix(static_cast<std::uint64_t>(row.n));
    f.mix(bits(row.analysis_bound));
    for (const double measured : row.measured) f.mix(bits(measured));
  }
  return f.h;
}

std::uint64_t profile_hash(const mcs::apps::ExecutionProfile& profile) {
  Fnv f;
  f.mix(profile.samples.size());
  for (const double s : profile.samples) f.mix(bits(s));
  f.mix(bits(profile.acet));
  f.mix(bits(profile.sigma));
  return f.h;
}

struct Timed {
  double seconds;
  std::uint64_t hash;
};

/// Runs `work` `repeats` times, keeping the best wall-clock time.
Timed time_best(std::uint64_t repeats,
                const std::function<std::uint64_t()>& work) {
  Timed best{0.0, 0};
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t hash = work();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best.seconds) best.seconds =
        elapsed.count();
    best.hash = hash;
  }
  return best;
}

/// One timed configuration, for the optional --json artifact.
struct JsonRecord {
  std::string section;
  std::uint64_t jobs = 1;
  std::uint64_t grain = 0;  ///< 0 = not applicable / auto
  double seconds = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

std::vector<JsonRecord>& json_records() {
  static std::vector<JsonRecord> records;
  return records;
}

/// Renders the collected records as a JSON document (stable key order, no
/// external dependency — consumed by the CI artifact upload).
std::string render_json(bool identical, std::uint64_t samples,
                        std::uint64_t items) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"perf_parallel_scaling\",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"items\": " << items << ",\n"
      << "  \"all_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  const std::vector<JsonRecord>& records = json_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "    {\"section\": \"" << r.section << "\", \"jobs\": " << r.jobs
        << ", \"grain\": " << r.grain << ", \"seconds\": " << r.seconds
        << ", \"speedup\": " << r.speedup
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::vector<std::uint64_t> power_of_two_jobs(std::uint64_t max_jobs) {
  std::vector<std::uint64_t> job_counts;
  for (std::uint64_t j = 1; j <= max_jobs; j *= 2) job_counts.push_back(j);
  if (job_counts.back() != max_jobs) job_counts.push_back(max_jobs);
  return job_counts;
}

/// Sweeps --jobs over powers of two, timing `work` at each count and
/// checking its hash against the --jobs=1 run. Returns overall identity.
bool sweep_jobs(mcs::common::Table& table, const std::string& section,
                std::uint64_t max_jobs, std::uint64_t repeats,
                const std::function<std::uint64_t()>& work) {
  double serial_seconds = 0.0;
  std::uint64_t serial_hash = 0;
  bool identical = true;
  for (const std::uint64_t jobs : power_of_two_jobs(max_jobs)) {
    mcs::common::set_default_jobs(jobs);
    const Timed timed = time_best(repeats, work);
    if (jobs == 1) {
      serial_hash = timed.hash;
      serial_seconds = timed.seconds;
    }
    const bool match = timed.hash == serial_hash;
    identical = identical && match;
    table.add_row({std::to_string(jobs),
                   mcs::common::format_double(timed.seconds, 3),
                   mcs::common::format_double(serial_seconds / timed.seconds,
                                              2),
                   match ? "yes" : "NO"});
    json_records().push_back({section, jobs, 0, timed.seconds,
                              serial_seconds / timed.seconds, match});
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t samples = 2000;
  std::uint64_t seed = 3;
  std::uint64_t max_jobs = mcs::common::hardware_jobs();
  std::uint64_t repeats = 3;
  std::uint64_t items = 1000000;
  std::string json_path;
  mcs::common::Cli cli(
      "Parallel-scaling benchmark: Table II sweep, measure_kernel's "
      "per-sample loop, and a chunked million-item parallel_map, each at "
      "--jobs 1, 2, 4, ... with bit-identity verification against the "
      "serial run");
  cli.add_u64("samples", &samples, "Monte Carlo samples per kernel");
  cli.add_u64("seed", &seed, "PRNG seed");
  cli.add_u64("max-jobs", &max_jobs, "highest job count to benchmark");
  cli.add_u64("repeats", &repeats,
              "timed repetitions per configuration (best kept)");
  cli.add_u64("items", &items, "item count for the chunked-map section");
  cli.add_string("json", &json_path,
                 "also write the results as JSON to this path (CI artifact)");
  if (!cli.parse(argc, argv)) return 1;
  if (max_jobs == 0) max_jobs = 1;
  if (repeats == 0) repeats = 1;
  if (items == 0) items = 1;

  const std::size_t saved_jobs = mcs::common::default_jobs();
  bool identical = true;

  // Section 1: Table II sweep (one flat (kernel, sample) loop).
  mcs::common::Table table2_table(
      {"jobs", "seconds (best)", "speedup", "identical"});
  table2_table.set_title("Table II sweep: wall-clock vs --jobs (" +
                         std::to_string(samples) + " samples/kernel)");
  identical &= sweep_jobs(table2_table, "table2_sweep", max_jobs, repeats, [&] {
    return result_hash(
        mcs::exp::run_table2(static_cast<std::size_t>(samples), seed));
  });
  std::fputs(table2_table.render().c_str(), stdout);

  // Section 2: the measurement loop for a single kernel (fine items: one
  // kernel run per sample, counter-based streams, grain 1).
  const mcs::apps::KernelPtr kernel = mcs::apps::table2_kernels()[0];
  mcs::common::Table measure_table(
      {"jobs", "seconds (best)", "speedup", "identical"});
  measure_table.set_title("measure_kernel(" + kernel->name() + ", " +
                          std::to_string(4 * samples) +
                          " samples): wall-clock vs --jobs");
  identical &= sweep_jobs(measure_table, "measure_kernel", max_jobs, repeats,
                          [&] {
    return profile_hash(mcs::apps::measure_kernel(
        *kernel, static_cast<std::size_t>(4 * samples), seed));
  });
  std::printf("\n%s", measure_table.render().c_str());

  // Section 3: chunked dispatch overhead. Per-item work is a few dozen
  // nanoseconds, so at grain 1 the queue op dominates; the table shows
  // seconds per (jobs, grain) with grain 0 = auto.
  mcs::common::Table grain_table(
      {"jobs", "grain", "seconds (best)", "speedup vs serial", "identical"});
  grain_table.set_title(
      "chunked parallel_map, " + std::to_string(items) +
      " items: wall-clock vs --jobs and grain (grain 0 = auto)");
  const auto tiny_item = [](std::size_t i) {
    std::uint64_t state = mcs::common::index_seed(7, i);
    std::uint64_t acc = 0;
    for (int k = 0; k < 8; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      acc ^= state >> 33;
    }
    return acc;
  };
  const auto chunked_run = [&](std::size_t grain) {
    Fnv f;
    const std::vector<std::uint64_t> out = mcs::common::parallel_map_chunked(
        static_cast<std::size_t>(items), grain, tiny_item);
    for (const std::uint64_t v : out) f.mix(v);
    return f.h;
  };
  double grain_serial_seconds = 0.0;
  std::uint64_t grain_serial_hash = 0;
  {
    mcs::common::set_default_jobs(1);
    const Timed serial = time_best(repeats, [&] { return chunked_run(1); });
    grain_serial_seconds = serial.seconds;
    grain_serial_hash = serial.hash;
    grain_table.add_row({"1", "-",
                         mcs::common::format_double(serial.seconds, 3), "1",
                         "yes"});
    json_records().push_back(
        {"chunked_map", 1, 1, serial.seconds, 1.0, true});
  }
  for (const std::uint64_t jobs : power_of_two_jobs(max_jobs)) {
    if (jobs == 1) continue;
    mcs::common::set_default_jobs(jobs);
    for (const std::size_t grain : {std::size_t{1}, std::size_t{64},
                                    std::size_t{1024}, std::size_t{16384},
                                    std::size_t{0}}) {
      const Timed timed =
          time_best(repeats, [&] { return chunked_run(grain); });
      const bool match = timed.hash == grain_serial_hash;
      identical = identical && match;
      grain_table.add_row(
          {std::to_string(jobs), grain == 0 ? "auto" : std::to_string(grain),
           mcs::common::format_double(timed.seconds, 3),
           mcs::common::format_double(grain_serial_seconds / timed.seconds, 2),
           match ? "yes" : "NO"});
      json_records().push_back({"chunked_map", jobs, grain, timed.seconds,
                                grain_serial_seconds / timed.seconds, match});
    }
  }
  std::printf("\n%s", grain_table.render().c_str());
  mcs::common::set_default_jobs(saved_jobs);

  std::puts(identical
                ? "\nAll sections bit-identical to --jobs=1 at every "
                  "configuration."
                : "\nDETERMINISM VIOLATION: a parallel result differs from "
                  "--jobs=1.");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    out << render_json(identical, samples, items);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
