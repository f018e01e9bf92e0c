#include "io/fields.hpp"

#include <charconv>

namespace effitest::io {

UnsignedField parse_unsigned(std::string_view text, std::uint64_t max) {
  UnsignedField out;
  const char* first = text.data();
  const char* last = first + text.size();
  // from_chars takes no sign and no leading whitespace for an unsigned
  // type; on overflow it still consumes every digit, so `end` tells
  // trailing bytes apart from a too-large number.
  const auto [end, ec] = std::from_chars(first, last, out.value);
  if (text.empty() || end != last) return out;
  out.status = ec == std::errc::result_out_of_range || out.value > max
                   ? UnsignedField::Status::kOutOfRange
                   : UnsignedField::Status::kOk;
  return out;
}

std::optional<HostPort> parse_host_port(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  const UnsignedField port = parse_unsigned(text.substr(colon + 1), 65535);
  if (!port) return std::nullopt;
  return HostPort{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(port.value)};
}

}  // namespace effitest::io
