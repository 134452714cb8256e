// Tests for the smaller common/ pieces: time units.
#include <gtest/gtest.h>

#include "common/units.hpp"

namespace mcs::common {
namespace {

TEST(ClockModel, RoundTripConversions) {
  constexpr ClockModel clock{.cycles_per_ms = 2.0e5};
  EXPECT_DOUBLE_EQ(clock.to_ms(200000), 1.0);
  EXPECT_EQ(clock.to_cycles(1.0), 200000U);
  EXPECT_DOUBLE_EQ(clock.to_ms(clock.to_cycles(3.5)), 3.5);
}

TEST(ClockModel, DefaultIs100MHz) {
  constexpr ClockModel clock;
  EXPECT_DOUBLE_EQ(clock.cycles_per_ms, 1e5);
  EXPECT_DOUBLE_EQ(clock.to_ms(100000), 1.0);
}

TEST(ClockModel, TruncationSemantics) {
  constexpr ClockModel clock{.cycles_per_ms = 3.0};
  EXPECT_EQ(clock.to_cycles(1.5), 4U);  // 4.5 truncates
}

}  // namespace
}  // namespace mcs::common
