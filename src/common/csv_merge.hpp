// Shard-CSV recombination behind tools/mcs_merge, plus the atomic file
// write behind every driver's `--out`.
//
// Shard drivers (`--shard i/N --csv`) emit partial CSVs over a
// deterministically split index space; these helpers recombine them into
// the file the unsharded run would have written, byte for byte. Any
// inconsistency between shards — mismatched headers in row mode,
// mismatched key columns or row counts in paste mode, and in either mode
// a row whose width differs from its own file's header — throws
// std::runtime_error: silent misalignment would corrupt the merged
// experiment.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcs::common {

/// One parsed CSV file: header plus data rows.
struct CsvFile {
  std::string path;  ///< origin, used in error messages
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Reads one CSV file (header + rows, tolerating CRLF and blank lines).
/// Throws std::runtime_error when the file cannot be opened or has no
/// header row.
[[nodiscard]] CsvFile read_csv_file(const std::string& path);

/// Row concatenation: every shard must carry the first shard's header;
/// the output is that header followed by all rows in argument order.
void merge_csv_rows(const std::vector<CsvFile>& files, std::ostream& out);

/// Column paste (Table II layout): the first `keys` columns must agree
/// across shards row-by-row; the remaining columns are appended in
/// argument order. Requires keys >= 1.
void merge_csv_columns(const std::vector<CsvFile>& files, std::size_t keys,
                       std::ostream& out);

/// Writes `content` to `path` atomically: the bytes go to a temporary
/// sibling first and rename() publishes them, so readers never observe a
/// torn file and a crash leaves no half-written output. Throws
/// std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

/// Driver-side output helper behind Cli::add_output: writes `csv` to
/// stdout when `out_path` is empty, atomically to `out_path` otherwise.
/// Returns 0, or 1 after printing the error to stderr — drivers return
/// it from main directly.
int emit_csv(const std::string& out_path, const std::string& csv);

}  // namespace mcs::common
