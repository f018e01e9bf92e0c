#pragma once
// The one strict parser for each of the small grammars that every front
// end shares: unsigned decimal fields (CLI and bench options, hello,
// greeting, stimulus and response fields), finite decimal numbers (CLI
// options, stimulus periods), `host:port` targets (CLI --connect/--workers,
// the serving banner of a spawned worker) and whitespace-separated words.
// None throws.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace effitest::io {

struct UnsignedField {
  enum class Status { kOk, kMalformed, kOutOfRange };
  Status status = Status::kMalformed;
  std::uint64_t value = 0;  ///< valid only when status == kOk

  explicit operator bool() const { return status == Status::kOk; }
};

/// `text` as plain decimal digits: kMalformed for an empty text, a sign,
/// whitespace, a radix prefix or trailing bytes; kOutOfRange for a value
/// above `max` (or 64 bits). "+1" and "-1" are malformed, never 1 or
/// 2^64-1 as stream extraction into size_t reads them.
[[nodiscard]] UnsignedField parse_unsigned(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// `text` as a finite decimal number in std::from_chars' general format:
/// nullopt for an empty text, whitespace, a leading '+', a hex float,
/// trailing bytes, a value out of a double's range, "inf" or "nan".
[[nodiscard]] std::optional<double> parse_finite_double(std::string_view text);

/// `line` split on whitespace (the bytes `std::isspace` accepts in the
/// classic locale); runs of separators count once.
[[nodiscard]] std::vector<std::string_view> split_words(std::string_view line);

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// `host:port` split at the last ':': a non-empty host and an unsigned
/// field in 0-65535. nullopt for anything else.
[[nodiscard]] std::optional<HostPort> parse_host_port(std::string_view text);

}  // namespace effitest::io
