#pragma once
// The one strict parser for each of two small grammars that every front
// end shares: unsigned decimal fields (CLI and bench options, hello and
// greeting fields) and `host:port` targets (CLI --connect/--workers, the
// serving banner of a spawned worker). Neither throws.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

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

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// `host:port` split at the last ':': a non-empty host and an unsigned
/// field in 0-65535. nullopt for anything else.
[[nodiscard]] std::optional<HostPort> parse_host_port(std::string_view text);

}  // namespace effitest::io
