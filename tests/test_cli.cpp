// Tests for common/cli.hpp argument parsing.
#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace mcs::common {
namespace {

TEST(Cli, ParsesAllTypes) {
  std::uint64_t samples = 100;
  double util = 0.5;
  std::string name = "default";
  bool verbose = false;
  Cli cli("test");
  cli.add_u64("samples", &samples, "sample count");
  cli.add_double("util", &util, "utilization");
  cli.add_string("name", &name, "a name");
  cli.add_flag("verbose", &verbose, "chatty");

  const char* argv[] = {"prog", "--samples=200", "--util", "0.8",
                        "--name=edge", "--verbose"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(samples, 200U);
  EXPECT_DOUBLE_EQ(util, 0.8);
  EXPECT_EQ(name, "edge");
  EXPECT_TRUE(verbose);
}

TEST(Cli, FlagExplicitFalse) {
  bool flag = true;
  Cli cli("test");
  cli.add_flag("flag", &flag, "f");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(flag);
}

TEST(Cli, UnknownOptionFails) {
  Cli cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueFails) {
  std::uint64_t v = 0;
  Cli cli("test");
  cli.add_u64("v", &v, "value");
  const char* argv[] = {"prog", "--v"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, BadNumberFails) {
  // strtoull clamps out-of-range values to 2^64-1; they must not parse.
  for (const char* arg : {"--v=abc", "--v=99999999999999999999999",
                          "--v=18446744073709551616"}) {
    std::uint64_t v = 0;
    Cli cli("test");
    cli.add_u64("v", &v, "value");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(cli.parse(2, argv)) << arg;
  }
  for (const char* arg : {"--d=abc", "--d=nan", "--d=-nan", "--d=inf",
                          "--d=-infinity", "--d=1e999"}) {
    double d = 0.5;
    Cli cli("test");
    cli.add_double("d", &d, "value");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(cli.parse(2, argv)) << arg;
  }
  // The largest u64 is still in range.
  std::uint64_t v = 0;
  Cli cli("test");
  cli.add_u64("v", &v, "value");
  const char* argv[] = {"prog", "--v=18446744073709551615"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(v, 18446744073709551615ULL);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, SkipsGoogleBenchmarkOptions) {
  std::uint64_t v = 1;
  Cli cli("test");
  cli.add_u64("v", &v, "value");
  const char* argv[] = {"prog", "--benchmark_filter=all", "--v=9"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(v, 9U);
}

TEST(Cli, PositionalArgumentFails) {
  Cli cli("test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpTextListsOptionsAndDefaults) {
  std::uint64_t v = 77;
  Cli cli("my summary");
  cli.add_u64("vvv", &v, "the knob");
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("my summary"), std::string::npos);
  EXPECT_NE(help.find("--vvv"), std::string::npos);
  EXPECT_NE(help.find("77"), std::string::npos);
  EXPECT_NE(help.find("the knob"), std::string::npos);
}

}  // namespace
}  // namespace mcs::common
