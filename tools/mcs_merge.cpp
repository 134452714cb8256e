// mcs_merge — recombines partial CSVs produced by sharded experiment
// drivers (`--shard i/N --csv`) into the file the unsharded run would
// have written, byte for byte.
//
// Two merge modes, matching the two ways drivers shard:
//
//  * row concatenation (default): shards slice the driver's outer index
//    space, so each partial CSV holds a contiguous run of rows under the
//    same header. Pass the shard files in shard order; the merged output
//    is the first file's header followed by every file's rows.
//      mcs_merge fig6_0.csv fig6_1.csv fig6_2.csv fig6_3.csv > fig6.csv
//
//  * column paste (`--paste=K`): Table II shards column-wise over the
//    application kernels, so each partial CSV holds the K key columns
//    (n, Analysis) plus its slice of application columns. The merged
//    output keeps the key columns of the first file and appends every
//    file's remaining columns in argument order.
//      mcs_merge --paste=2 t2_0.csv t2_1.csv > table2.csv
//
// Output goes to stdout (or `--output=FILE`, written atomically). The
// merge logic itself lives in common/csv_merge.hpp; any inconsistency
// between shards (headers, key columns, row counts, a row whose width
// differs from its header) is a hard error there, reported here with
// exit 1.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv_merge.hpp"

int main(int argc, char** argv) {
  std::uint64_t paste_keys = 0;
  std::string output;
  std::vector<std::string> inputs;

  // Hand-rolled argv walk: mcs_merge takes positional shard files, which
  // common::Cli (options-only) rejects by design.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(
          "mcs_merge — recombine sharded experiment CSVs\n\n"
          "usage: mcs_merge [--paste=K] [--output=FILE] shard0.csv "
          "shard1.csv ...\n\n"
          "options:\n"
          "  --paste=K       column-paste mode: keep the first K key\n"
          "                  columns of the first shard and append every\n"
          "                  shard's remaining columns (Table II layout);\n"
          "                  default is row concatenation\n"
          "  --output=FILE   write to FILE (atomically) instead of stdout\n"
          "  --help          show this message\n\n"
          "Pass the shard files in shard order (0/N, 1/N, ...). The merged\n"
          "output is byte-identical to the unsharded --csv run.\n",
          stdout);
      return 0;
    }
    if (arg.rfind("--paste=", 0) == 0) {
      try {
        paste_keys = std::stoull(arg.substr(8));
      } catch (const std::exception&) {
        paste_keys = 0;
      }
      if (paste_keys == 0) {
        std::fprintf(stderr, "mcs_merge: invalid --paste value in '%s'\n",
                     arg.c_str());
        return 1;
      }
    } else if (arg.rfind("--output=", 0) == 0) {
      output = arg.substr(9);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mcs_merge: unknown option %s (see --help)\n",
                   arg.c_str());
      return 1;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "mcs_merge: no input files (see --help)\n");
    return 1;
  }

  try {
    std::vector<mcs::common::CsvFile> files;
    files.reserve(inputs.size());
    for (const std::string& path : inputs)
      files.push_back(mcs::common::read_csv_file(path));

    std::ostringstream merged;
    if (paste_keys > 0)
      mcs::common::merge_csv_columns(files, paste_keys, merged);
    else
      mcs::common::merge_csv_rows(files, merged);

    if (output.empty())
      std::cout << merged.str();
    else
      mcs::common::write_file_atomic(output, merged.str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mcs_merge: %s\n", error.what());
    return 1;
  }
  return 0;
}
