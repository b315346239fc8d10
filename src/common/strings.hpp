// Small string utilities shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace pwx {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-case an ASCII string.
std::string to_lower(std::string_view text);

/// printf-style double formatting with fixed precision, locale-independent.
std::string format_double(double value, int precision);

/// Parse all of `text` as a finite double / an unsigned decimal integer.
/// Empty input, trailing characters and out-of-range values give nullopt —
/// the strict counterpart of strtod/strtoull for command-line values.
std::optional<double> parse_double(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Store a parsed command-line value in `out`; false, leaving `out`
/// untouched, when the text did not parse or the value does not fit `Out`.
/// The tools stop parsing on false and print their usage text.
template <typename T, typename Out>
bool assign(const std::optional<T>& value, Out& out) {
  if (!value) {
    return false;
  }
  if constexpr (std::is_integral_v<T> && std::is_integral_v<Out>) {
    if (!std::in_range<Out>(*value)) {
      return false;
    }
  }
  out = static_cast<Out>(*value);
  return true;
}

}  // namespace pwx
