// Tests for mc/io.hpp — task-set serialization round trips and parse
// error reporting.
#include "mc/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "taskgen/generator.hpp"

namespace mcs::mc {
namespace {

TaskSet sample_set() {
  TaskSet tasks;
  McTask hc = McTask::high("sensor", 12.5, 60.0, 200.0);
  hc.stats = ExecutionStats{10.0, 2.5, nullptr};
  tasks.add(hc);
  tasks.add(McTask::low("logger", 30.0, 400.0));
  return tasks;
}

TEST(TaskSetIo, RoundTripPreservesEverything) {
  const TaskSet original = sample_set();
  const std::string text = taskset_to_string(original);
  const TaskSet loaded = taskset_from_string(text, false);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].name, original[i].name);
    EXPECT_EQ(loaded[i].criticality, original[i].criticality);
    EXPECT_DOUBLE_EQ(loaded[i].wcet_lo, original[i].wcet_lo);
    EXPECT_DOUBLE_EQ(loaded[i].wcet_hi, original[i].wcet_hi);
    EXPECT_DOUBLE_EQ(loaded[i].period, original[i].period);
    EXPECT_EQ(loaded[i].stats.has_value(), original[i].stats.has_value());
    if (original[i].stats.has_value()) {
      EXPECT_DOUBLE_EQ(loaded[i].stats->acet, original[i].stats->acet);
      EXPECT_DOUBLE_EQ(loaded[i].stats->sigma, original[i].stats->sigma);
    }
  }
}

TEST(TaskSetIo, RoundTripGeneratedSet) {
  common::Rng rng(5);
  taskgen::GeneratorConfig config;
  const TaskSet original = taskgen::generate_mixed(config, 1.2, rng);
  const TaskSet loaded = taskset_from_string(taskset_to_string(original));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_NEAR(loaded.utilization(Criticality::kHigh, Mode::kHigh),
              original.utilization(Criticality::kHigh, Mode::kHigh), 1e-12);
  EXPECT_NEAR(loaded.utilization(Criticality::kLow, Mode::kLow),
              original.utilization(Criticality::kLow, Mode::kLow), 1e-12);
  EXPECT_TRUE(loaded.valid());
}

TEST(TaskSetIo, AttachesDistributionsOnRequest) {
  const std::string text =
      "taskset v1\n"
      "task t HC wcet_lo=5 wcet_hi=20 period=100 acet=4 sigma=1\n";
  const TaskSet with = taskset_from_string(text, true);
  const TaskSet without = taskset_from_string(text, false);
  EXPECT_NE(with[0].stats->distribution, nullptr);
  EXPECT_EQ(without[0].stats->distribution, nullptr);
}

TEST(TaskSetIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a task set\n"
      "taskset v1\n"
      "\n"
      "task a LC wcet_lo=1 wcet_hi=1 period=10  # trailing comment\n";
  const TaskSet loaded = taskset_from_string(text);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_EQ(loaded[0].name, "a");
}

TEST(TaskSetIo, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)taskset_from_string(text);
      FAIL() << "expected TaskSetParseError for: " << text;
    } catch (const TaskSetParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("task a LC wcet_lo=1 wcet_hi=1 period=10\n", "header");
  expect_error("taskset v2\n", "header");
  expect_error("taskset v1\nblob\n", "expected 'task'");
  expect_error("taskset v1\ntask a XX wcet_lo=1 wcet_hi=1 period=10\n",
               "criticality");
  expect_error("taskset v1\ntask a LC wcet_lo=1 period=10\n", "wcet_hi");
  expect_error("taskset v1\ntask a LC wcet_lo=1 wcet_hi=1 period=ten\n",
               "bad numeric");
  // NaN and infinity parse as numbers but are never valid task values.
  for (const char* field :
       {"acet=nan sigma=1", "acet=1 sigma=nan", "acet=inf sigma=1",
        "acet=1 sigma=-inf", "period=inf", "period=nan", "deadline=nan",
        "deadline=inf", "period=1e999"}) {
    std::string fields = field;
    if (fields.rfind("period=", 0) != 0) fields += " period=10";
    expect_error(
        "taskset v1\ntask a HC wcet_lo=1 wcet_hi=2 " + fields + "\n",
        "bad numeric");
  }
  expect_error("taskset v1\ntask a LC wcet_lo=1 wcet_hi=1 period=10 bogus=1\n",
               "unknown key");
  expect_error(
      "taskset v1\ntask a HC wcet_lo=1 wcet_hi=2 period=10 acet=0.5\n",
      "together");
  expect_error(
      "taskset v1\ntask a LC wcet_lo=5 wcet_hi=1 period=10\n", "invalid");
  expect_error(
      "taskset v1\ntask a LC wcet_lo=1 wcet_hi=1 period=10 "
      "wcet_lo=2 wcet_hi=2 period=20\n",
      "duplicate");
  expect_error("", "header");
}

TEST(TaskSetIo, LineNumberIsAccurate) {
  const std::string text =
      "taskset v1\n"
      "task good LC wcet_lo=1 wcet_hi=1 period=10\n"
      "task bad LC wcet_lo=0 wcet_hi=1 period=10\n";
  try {
    (void)taskset_from_string(text);
    FAIL();
  } catch (const TaskSetParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TaskSetIo, ConstrainedDeadlineRoundTrips) {
  TaskSet tasks;
  tasks.add(McTask::low("c", 2.0, 10.0).with_deadline(6.0));
  tasks.add(McTask::low("i", 2.0, 10.0));
  const TaskSet loaded = taskset_from_string(taskset_to_string(tasks));
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_DOUBLE_EQ(loaded[0].deadline(), 6.0);
  EXPECT_FALSE(loaded[0].implicit_deadline());
  EXPECT_TRUE(loaded[1].implicit_deadline());
}

TEST(TaskSetIo, StreamOverloads) {
  const TaskSet original = sample_set();
  std::stringstream stream;
  save_taskset(stream, original);
  const TaskSet loaded = load_taskset(stream);
  EXPECT_EQ(loaded.size(), original.size());
}

}  // namespace
}  // namespace mcs::mc
