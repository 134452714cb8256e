// Tests for common/csv.hpp (quoting, joining and parsing round trips) and
// common/csv_merge.hpp (shard recombination and its error paths).
#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv_merge.hpp"

namespace mcs::common {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, CommaQuoted) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(CsvEscape, QuoteDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineQuoted) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST(CsvJoin, JoinsWithCommas) {
  EXPECT_EQ(csv_join({"a", "b", "c"}), "a,b,c");
  EXPECT_EQ(csv_join({}), "");
}

TEST(CsvParse, SimpleRecord) {
  const auto fields = csv_parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3U);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvParse, QuotedFieldsWithCommas) {
  const auto fields = csv_parse_line("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2U);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "c");
}

TEST(CsvParse, EmbeddedQuotes) {
  const auto fields = csv_parse_line("\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 1U);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvParse, EmptyFields) {
  const auto fields = csv_parse_line("a,,c");
  ASSERT_EQ(fields.size(), 3U);
  EXPECT_EQ(fields[1], "");
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW((void)csv_parse_line("\"oops"), std::invalid_argument);
}

TEST(CsvRoundTrip, EscapeJoinParse) {
  const std::vector<std::string> original = {"plain", "with,comma",
                                             "with\"quote", "multi\nline"};
  const auto parsed = csv_parse_line(csv_join(original));
  EXPECT_EQ(parsed, original);
}

TEST(CsvWriter, WritesRowsAndCounts) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"h1", "h2"});
  writer.write_row({"a", "b,c"});
  EXPECT_EQ(writer.rows_written(), 2U);
  EXPECT_EQ(out.str(), "h1,h2\na,\"b,c\"\n");
}


// --- csv_merge ------------------------------------------------------------

std::string merge_rows(const std::vector<CsvFile>& files) {
  std::ostringstream out;
  merge_csv_rows(files, out);
  return out.str();
}

std::string paste(const std::vector<CsvFile>& files, std::size_t keys) {
  std::ostringstream out;
  merge_csv_columns(files, keys, out);
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "test_csv_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CsvMerge, RowModeRejectsHeaderMismatch) {
  EXPECT_THROW(merge_rows({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}},
                           CsvFile{"p1", {"n", "y"}, {{"2", "b"}}}}),
               std::runtime_error);
}

TEST(CsvMerge, RowModeRejectsRaggedRow) {
  EXPECT_EQ(merge_rows({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}},
                        CsvFile{"p1", {"n", "x"}, {{"2", "b"}, {"3", "c"}}}}),
            "n,x\n1,a\n2,b\n3,c\n");
  // A 3-field row under a 2-column header must not pass through.
  EXPECT_THROW(merge_rows({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}},
                           CsvFile{"p1", {"n", "x"}, {{"2", "b", "c"}}}}),
               std::runtime_error);
  EXPECT_THROW(merge_rows({CsvFile{"p0", {"n", "x"}, {{"1"}}}}),
               std::runtime_error);
}

TEST(CsvMerge, PasteRejectsKeyColumnMismatch) {
  // Key header differs.
  EXPECT_THROW(paste({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}},
                      CsvFile{"p1", {"m", "y"}, {{"1", "b"}}}},
                     1),
               std::runtime_error);
  // Key value differs.
  EXPECT_THROW(paste({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}},
                      CsvFile{"p1", {"n", "y"}, {{"2", "b"}}}},
                     1),
               std::runtime_error);
}

TEST(CsvMerge, PasteRejectsRowCountMismatch) {
  EXPECT_THROW(paste({CsvFile{"p0", {"n", "x"}, {{"1", "a"}, {"2", "b"}}},
                      CsvFile{"p1", {"n", "y"}, {{"1", "c"}}}},
                     1),
               std::runtime_error);
}

TEST(CsvMerge, PasteRejectsZeroKeys) {
  EXPECT_THROW(paste({CsvFile{"p0", {"n", "x"}, {{"1", "a"}}}}, 0),
               std::runtime_error);
}

TEST(CsvMerge, PasteRejectsRaggedRow) {
  EXPECT_EQ(paste({CsvFile{"p0", {"n", "A", "x"}, {{"2", "b", "20"}}},
                   CsvFile{"p1", {"n", "A", "z"}, {{"2", "b", "40"}}}},
                  2),
            "n,A,x,z\n2,b,20,40\n");
  // Shard 0's row is one field short: merged as 2,b,20,40, shard 1's 40
  // would land under shard 0's y.
  EXPECT_THROW(paste({CsvFile{"p0", {"n", "A", "x", "y"}, {{"2", "b", "20"}}},
                      CsvFile{"p1", {"n", "A", "z"}, {{"2", "b", "40"}}}},
                     2),
               std::runtime_error);
}

TEST(CsvMerge, ReadRejectsFileWithoutHeader) {
  const std::string path = temp_path("blank.csv");
  std::ofstream(path) << "\n\r\n";
  EXPECT_THROW((void)read_csv_file(path), std::runtime_error);
  EXPECT_THROW((void)read_csv_file(temp_path("missing.csv")),
               std::runtime_error);
  (void)std::remove(path.c_str());
}

TEST(CsvMerge, WriteFileAtomicRoundTrips) {
  const std::string path = temp_path("atomic.csv");
  write_file_atomic(path, "old\n");
  const std::string content = "n,x\r\n1,\"a,b\"\n\n2,c\n";
  write_file_atomic(path, content);
  EXPECT_EQ(slurp(path), content);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temporary sibling left behind";
  const CsvFile file = read_csv_file(path);
  EXPECT_EQ(file.header, (std::vector<std::string>{"n", "x"}));
  EXPECT_EQ(file.rows, (std::vector<std::vector<std::string>>{
                           {"1", "a,b"}, {"2", "c"}}));
  (void)std::remove(path.c_str());
}

}  // namespace
}  // namespace mcs::common
