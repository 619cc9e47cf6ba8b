// Small string helpers shared by the ETL layer and renderers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vexus {

/// Splits on a single character; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strict parse of a whole string (after trimming) as int64 / double.
/// Empty strings and trailing garbage yield nullopt.
std::optional<int64_t> ParseInt(std::string_view s);
std::optional<double> ParseDouble(std::string_view s);

/// Formats a double with up to `precision` fractional digits, trimming
/// trailing zeros ("1.50" -> "1.5", "2.00" -> "2").
std::string FormatDouble(double v, int precision = 4);

/// Human-readable count: 12345678 -> "12,345,678".
std::string WithThousands(uint64_t v);

namespace internal {
inline void AppendPiece(std::string* out, std::string_view s) {
  out->append(s);
}
inline void AppendPiece(std::string* out, char c) { out->push_back(c); }
template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
void AppendPiece(std::string* out, Int n) {
  out->append(std::to_string(n));
}
}  // namespace internal

/// Appends strings, characters and integers in order: StrCat("u", 7) ->
/// "u7". Prefer it to `"u" + std::to_string(7)`: that operator+ inserts
/// the literal at the front of the temporary, which GCC 12 reports as an
/// overlapping memcpy (-Wrestrict) wherever it is inlined.
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  (internal::AppendPiece(&out, parts), ...);
  return out;
}

}  // namespace vexus
