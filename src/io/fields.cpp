#include "io/fields.hpp"

#include <charconv>
#include <cmath>

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

std::optional<double> parse_finite_double(std::string_view text) {
  const char* first = text.data();
  const char* last = first + text.size();
  // from_chars takes no '+' and no leading whitespace, and reads hex digits
  // only under chars_format::hex, so "0x1p8" stops at the 'x'.
  double value = 0.0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || end != last ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string_view> split_words(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> words;
  std::size_t pos = line.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, pos);
    words.push_back(line.substr(pos, end - pos));
    pos = line.find_first_not_of(kSpace, end);
  }
  return words;
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
