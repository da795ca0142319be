// Strict CLI numeric parsing (common/parse.hpp): the whole token must
// parse, signs and trailing garbage are named, and non-finite values are
// rejected — the contract behind `ipfs_sim`'s option errors.
#include <gtest/gtest.h>

#include "common/parse.hpp"

namespace ipfs::common {
namespace {

TEST(ParseU64, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_u64("0").value_or(99), 0u);
  EXPECT_EQ(parse_u64("42").value_or(0), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615").value_or(0),
            18446744073709551615ULL);  // uint64 max, inclusive
}

TEST(ParseU64, RejectsWithNamedReasons) {
  const struct {
    const char* text;
    const char* expected;
  } cases[] = {
      {"", "expected a number, got ''"},
      {"abc", "expected a number, got 'abc'"},
      {"-3", "must be a non-negative integer, got '-3'"},
      {"+3", "must be a non-negative integer, got '+3'"},
      {"4x", "trailing characters after number: '4x'"},
      {"12 ", "trailing characters after number: '12 '"},
      {"3.5", "trailing characters after number: '3.5'"},
      {"0x10", "trailing characters after number: '0x10'"},
      {"18446744073709551616", "out of range: '18446744073709551616'"},
  };
  for (const auto& test_case : cases) {
    const auto parsed = parse_u64(test_case.text);
    ASSERT_FALSE(parsed.has_value()) << test_case.text;
    EXPECT_EQ(parsed.error(), test_case.expected);
  }
}

TEST(ParseFiniteDouble, AcceptsDecimalsAndExponents) {
  EXPECT_DOUBLE_EQ(parse_finite_double("0.002").value_or(0), 0.002);
  EXPECT_DOUBLE_EQ(parse_finite_double("-1.5").value_or(0), -1.5);
  EXPECT_DOUBLE_EQ(parse_finite_double("2e3").value_or(0), 2000.0);
}

TEST(ParseFiniteDouble, RejectsWithNamedReasons) {
  const struct {
    const char* text;
    const char* expected;
  } cases[] = {
      {"", "expected a number, got ''"},
      {"fast", "expected a number, got 'fast'"},
      {"1.5x", "trailing characters after number: '1.5x'"},
      {"1.5 ", "trailing characters after number: '1.5 '"},
      {"inf", "must be finite, got 'inf'"},
      {"-inf", "must be finite, got '-inf'"},
      {"nan", "must be finite, got 'nan'"},
      {"1e999", "out of range: '1e999'"},
  };
  for (const auto& test_case : cases) {
    const auto parsed = parse_finite_double(test_case.text);
    ASSERT_FALSE(parsed.has_value()) << test_case.text;
    EXPECT_EQ(parsed.error(), test_case.expected);
  }
}

TEST(ParseDurationS, ConvertsSecondsToTruncatedMilliseconds) {
  EXPECT_EQ(parse_duration_s("1800").value_or(0), 1'800'000);
  EXPECT_EQ(parse_duration_s("0.001").value_or(0), 1);
  EXPECT_EQ(parse_duration_s("0.0015").value_or(0), 1);
  EXPECT_EQ(parse_duration_s("3.6e3").value_or(0), 3'600'000);
  EXPECT_EQ(parse_duration_s("9e15").value_or(0), 9'000'000'000'000'000'000);
}

TEST(ParseDurationS, RejectsValuesOutsideTheSimTimeRange) {
  const struct {
    const char* text;
    const char* expected;
  } cases[] = {
      {"", "expected a number, got ''"},
      {"1h", "trailing characters after number: '1h'"},
      {"inf", "must be finite, got 'inf'"},
      {"0", "must be > 0, got '0'"},
      {"-5", "must be > 0, got '-5'"},
      {"1e-9", "below the 1 ms time resolution, got '1e-9'"},
      {"0.0009", "below the 1 ms time resolution, got '0.0009'"},
      {"1e300", "beyond the simulated-time range, got '1e300'"},
      // 2^63 ms: the first millisecond count SimDuration cannot hold.
      {"9223372036854775.808", "beyond the simulated-time range, got "
                               "'9223372036854775.808'"},
  };
  for (const auto& test_case : cases) {
    const auto parsed = parse_duration_s(test_case.text);
    ASSERT_FALSE(parsed.has_value()) << test_case.text;
    EXPECT_EQ(parsed.error(), test_case.expected);
  }
}

}  // namespace
}  // namespace ipfs::common
