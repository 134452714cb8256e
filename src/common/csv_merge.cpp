#include "common/csv_merge.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"

namespace mcs::common {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

// Every row must be as wide as its own file's header; a short or long row
// would shift later fields under the wrong column once merged.
void check_row_widths(const CsvFile& file) {
  for (std::size_t r = 0; r < file.rows.size(); ++r) {
    if (file.rows[r].size() != file.header.size())
      fail(file.path + " row " + std::to_string(r) + " has " +
           std::to_string(file.rows[r].size()) + " fields but its header has " +
           std::to_string(file.header.size()));
  }
}

}  // namespace

CsvFile read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  CsvFile file;
  file.path = path;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = csv_parse_line(line);
    if (first) {
      file.header = std::move(fields);
      first = false;
    } else {
      file.rows.push_back(std::move(fields));
    }
  }
  if (first) fail(path + " has no header row");
  return file;
}

void merge_csv_rows(const std::vector<CsvFile>& files, std::ostream& out) {
  if (files.empty()) fail("no input files");
  for (const CsvFile& file : files) {
    if (file.header != files.front().header)
      fail("header of " + file.path + " differs from " +
           files.front().path + " — these are not shards of the same run");
    check_row_widths(file);
  }
  CsvWriter writer(out);
  writer.write_row(files.front().header);
  for (const CsvFile& file : files)
    for (const auto& row : file.rows) writer.write_row(row);
}

void merge_csv_columns(const std::vector<CsvFile>& files, std::size_t keys,
                       std::ostream& out) {
  if (files.empty()) fail("no input files");
  if (keys == 0) fail("column paste requires at least one key column");
  const CsvFile& first = files.front();
  for (const CsvFile& file : files) {
    if (file.header.size() < keys)
      fail(file.path + " has fewer than " + std::to_string(keys) +
           " key columns");
    check_row_widths(file);
    if (file.rows.size() != first.rows.size())
      fail(file.path + " has " + std::to_string(file.rows.size()) +
           " rows but " + first.path + " has " +
           std::to_string(first.rows.size()) +
           " — shards of the same run must agree");
    for (std::size_t c = 0; c < keys; ++c) {
      if (file.header[c] != first.header[c])
        fail("key columns of " + file.path + " differ from " + first.path);
      for (std::size_t r = 0; r < file.rows.size(); ++r) {
        if (file.rows[r][c] != first.rows[r][c])
          fail("key column " + std::to_string(c) + " of " + file.path +
               " row " + std::to_string(r) + " differs from " + first.path);
      }
    }
  }
  const auto key_end = static_cast<std::ptrdiff_t>(keys);
  std::vector<std::string> header(first.header.begin(),
                                  first.header.begin() + key_end);
  for (const CsvFile& file : files)
    header.insert(header.end(), file.header.begin() + key_end,
                  file.header.end());
  CsvWriter writer(out);
  writer.write_row(header);
  for (std::size_t r = 0; r < first.rows.size(); ++r) {
    std::vector<std::string> row(first.rows[r].begin(),
                                 first.rows[r].begin() + key_end);
    for (const CsvFile& file : files)
      row.insert(row.end(), file.rows[r].begin() + key_end,
                 file.rows[r].end());
    writer.write_row(row);
  }
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) fail("write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    fail("cannot rename " + tmp + " to " + path);
  }
}

int emit_csv(const std::string& out_path, const std::string& csv) {
  if (out_path.empty()) {
    std::fputs(csv.c_str(), stdout);
    return 0;
  }
  try {
    write_file_atomic(out_path, csv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}

}  // namespace mcs::common
