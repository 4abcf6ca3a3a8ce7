// Strict numeric values for command-line options, shared by shieldctl and
// the figure benches: only a whole-string number counts, so `--seed abc` is
// an error, not seed 0, and `--jobs -1` one, not a count wrapped to 2^64-1.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace config {

/// `text` as an unsigned decimal integer no greater than `max` (counts,
/// seeds); nullopt for a sign, a space, trailing text or overflow.
[[nodiscard]] inline std::optional<std::uint64_t> parse_count(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, 10);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

/// `text` as a finite decimal real, greater than 0 when `positive`, else at
/// least 0; nullopt for anything else.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view text,
                                                      bool positive) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return std::nullopt;
  if (positive ? v <= 0.0 : v < 0.0) return std::nullopt;
  return v;
}

}  // namespace config
