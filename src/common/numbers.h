// Number <-> text conversions shared by the `tcsm` flag set, the bench
// binaries' ParseBenchArgs, the result tables and the stats reporter.
// ParseNumber is strict where std::stoll / std::stod stop at the first
// bad character: "12abc", "0.5x", " 3", "", out-of-range and non-finite
// values are all rejected.
#ifndef TCSM_COMMON_NUMBERS_H_
#define TCSM_COMMON_NUMBERS_H_

#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tcsm {

/// Parses all of `text` as a T (an integer type or double) into *out;
/// false, with *out untouched, for anything else.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// Fixed-point text with `precision` decimals: FormatDouble(2.0, 3) is
/// "2.000".
inline std::string FormatDouble(double value, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

}  // namespace tcsm

#endif  // TCSM_COMMON_NUMBERS_H_
