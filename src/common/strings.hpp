// Small string utilities used throughout the library.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dhtidx {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// The one strict number parser for text from files and command lines: all
/// of `text` must be a non-negative number of type T -- digits in `base` for
/// an integer T, a plain decimal fraction ("0.25") for a floating-point T --
/// with no sign, blank, prefix or trailing character. nullopt on anything
/// else and on a value T cannot hold.
template <typename T>
std::optional<T> parse_number(std::string_view text, int base = 10) {
  if (text.empty() || text.front() == '-') return std::nullopt;
  const char* const end = text.data() + text.size();
  T value{};
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars also reads "inf" and "nan"; a fraction starts with a digit.
    if (text.front() < '0' || text.front() > '9') return std::nullopt;
    result = std::from_chars(text.data(), end, value, std::chars_format::fixed);
  } else {
    result = std::from_chars(text.data(), end, value, base);
  }
  if (result.ec != std::errc{} || result.ptr != end) return std::nullopt;
  return value;
}

}  // namespace dhtidx
