// Strict numeric parsing for CLI options.
//
// `std::stod`-style parsing silently tolerates trailing garbage, rounds
// through infinities, and leaves sign policy to every call site.  These
// helpers centralise one strict contract — the whole token must parse,
// the value must be finite and in range — and return the rejection reason
// so `tools/ipfs_sim.cpp` can print "--trials: trailing characters after
// number: '4x'" instead of swallowing the suffix.
#pragma once

#include <cstdint>
#include <expected>
#include <string>
#include <string_view>

#include "common/sim_time.hpp"

namespace ipfs::common {

/// Parse an unsigned decimal integer.  Rejects empty input, signs,
/// trailing characters, and values that overflow `std::uint64_t`.
[[nodiscard]] std::expected<std::uint64_t, std::string> parse_u64(
    std::string_view text);

/// Parse a finite decimal number.  Rejects empty input, trailing
/// characters, "inf"/"nan" spellings, and values that overflow double.
[[nodiscard]] std::expected<double, std::string> parse_finite_double(
    std::string_view text);

/// Parse a duration in seconds into simulated milliseconds (truncated, as
/// `from_seconds` does).  On top of `parse_finite_double`'s rejections it
/// refuses values <= 0, values under the 1 ms resolution (which would
/// truncate to 0) and values beyond the `SimDuration` range (whose
/// conversion would overflow).
[[nodiscard]] std::expected<SimDuration, std::string> parse_duration_s(
    std::string_view text);

}  // namespace ipfs::common
