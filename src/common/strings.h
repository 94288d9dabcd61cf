#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qb5000 {

/// ASCII-only lowercase copy (SQL keywords are ASCII).
std::string ToLower(std::string_view s);

/// ASCII-only uppercase copy.
std::string ToUpper(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

namespace strings_internal {

inline void AppendPiece(std::string* out, char c) { out->push_back(c); }
inline void AppendPiece(std::string* out, std::string_view s) {
  out->append(s);
}
/// `%.17g`: 17 significant digits, enough to round-trip any double.
void AppendPiece(std::string* out, double v);

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
           sizeof(T) > 1)
void AppendPiece(std::string* out, T v) {
  char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 of INT64_MIN
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace strings_internal

/// Appends the text of every argument to `*out`, in the manner of
/// absl::StrAppend: chars and strings verbatim, integers in decimal, and
/// doubles as printf's `%.17g`. That is byte-for-byte what an std::ostream
/// at precision(17) writes, so every persisted double round-trips exactly
/// without a stream or a precision setting. One-byte integers are refused:
/// an ostream would print them as characters.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  (strings_internal::AppendPiece(out, args), ...);
}

}  // namespace qb5000
