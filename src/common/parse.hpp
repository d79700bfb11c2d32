// Whole-token numeric parsing for the text inputs (fault plans, SLO specs,
// CLI flag values).

#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace echelon {

// Parses all of `s` as a T. False on an empty token, trailing characters, a
// sign on an unsigned T, or a value outside T's range (std::stod / stoull
// accept a numeric prefix, and stoull wraps "-1"). Floating T accepts "nan"
// and "inf"; callers that need a finite value check it.
template <typename T>
[[nodiscard]] bool parse_whole(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace echelon
