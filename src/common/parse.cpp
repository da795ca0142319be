#include "common/parse.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace ipfs::common {

namespace {

std::string quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

}  // namespace

std::expected<std::uint64_t, std::string> parse_u64(std::string_view text) {
  if (text.empty()) return std::unexpected("expected a number, got ''");
  if (text.front() == '+' || text.front() == '-') {
    // from_chars would reject '-' anyway, but with the same generic error
    // as garbage; name the actual problem.
    return std::unexpected("must be a non-negative integer, got " +
                           quoted(text));
  }
  std::uint64_t value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return std::unexpected("out of range: " + quoted(text));
  }
  if (ec != std::errc() || ptr == first) {
    return std::unexpected("expected a number, got " + quoted(text));
  }
  if (ptr != last) {
    return std::unexpected("trailing characters after number: " + quoted(text));
  }
  return value;
}

std::expected<double, std::string> parse_finite_double(std::string_view text) {
  if (text.empty()) return std::unexpected("expected a number, got ''");
  double value = 0.0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return std::unexpected("out of range: " + quoted(text));
  }
  if (ec != std::errc() || ptr == first) {
    return std::unexpected("expected a number, got " + quoted(text));
  }
  if (ptr != last) {
    return std::unexpected("trailing characters after number: " + quoted(text));
  }
  if (!std::isfinite(value)) {
    // from_chars accepts "inf"/"nan" spellings; a CLI option never wants
    // them.
    return std::unexpected("must be finite, got " + quoted(text));
  }
  return value;
}

std::expected<SimDuration, std::string> parse_duration_s(std::string_view text) {
  const auto seconds = parse_finite_double(text);
  if (!seconds) return std::unexpected(seconds.error());
  if (*seconds <= 0.0) return std::unexpected("must be > 0, got " + quoted(text));
  const double ms = *seconds * static_cast<double>(kSecond);
  if (ms < 1.0) {
    return std::unexpected("below the 1 ms time resolution, got " + quoted(text));
  }
  // 2^63 ms, the first value past the SimDuration range.
  if (ms >= static_cast<double>(std::numeric_limits<SimDuration>::max())) {
    return std::unexpected("beyond the simulated-time range, got " +
                           quoted(text));
  }
  return from_seconds(*seconds);
}

}  // namespace ipfs::common
