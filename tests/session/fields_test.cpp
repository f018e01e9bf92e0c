// The shared strict field parsers (io/fields.hpp): every unsigned CLI,
// bench and wire field, every decimal CLI option and stimulus period, and
// every host:port target goes through these, so their accept/reject table
// is pinned here once.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/fields.hpp"

namespace {

using effitest::io::HostPort;
using effitest::io::parse_finite_double;
using effitest::io::parse_host_port;
using effitest::io::parse_unsigned;
using effitest::io::split_words;
using Status = effitest::io::UnsignedField::Status;

TEST(UnsignedField, AcceptsPlainDigitsUpToTheBound) {
  EXPECT_EQ(parse_unsigned("0").value, 0u);
  EXPECT_EQ(parse_unsigned("007").value, 7u);
  const auto max = parse_unsigned("18446744073709551615");
  ASSERT_TRUE(max);
  EXPECT_EQ(max.value, UINT64_MAX);
  EXPECT_TRUE(parse_unsigned("65535", 65535));
}

TEST(UnsignedField, RejectsSignSpaceTrailingBytesAndEmptyInput) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1\n", "12x", "0x10",
                          "1.0", "1e3", "abc", "-0"}) {
    EXPECT_EQ(parse_unsigned(bad).status, Status::kMalformed) << bad;
  }
}

TEST(UnsignedField, OverflowIsOutOfRangeNotMalformed) {
  EXPECT_EQ(parse_unsigned("18446744073709551616").status,
            Status::kOutOfRange);
  EXPECT_EQ(parse_unsigned("99999999999999999999999999").status,
            Status::kOutOfRange);
  EXPECT_EQ(parse_unsigned("65536", 65535).status, Status::kOutOfRange);
  // Trailing bytes after an overflowing number are still malformed.
  EXPECT_EQ(parse_unsigned("99999999999999999999999999x").status,
            Status::kMalformed);
}

TEST(FiniteDouble, AcceptsDecimalNumbers) {
  EXPECT_EQ(parse_finite_double("256"), 256.0);
  EXPECT_EQ(parse_finite_double("-1.5"), -1.5);
  EXPECT_EQ(parse_finite_double("2.5e2"), 250.0);
  EXPECT_EQ(parse_finite_double(".5"), 0.5);
  // The shortest round-trip spelling reads back the same bits.
  EXPECT_EQ(parse_finite_double("201.65000000000001"), 201.65000000000001);
}

TEST(FiniteDouble, RejectsHexSpaceSignsTrailingBytesAndNonFinite) {
  for (const char* bad : {"", " 256", "256 ", "+256", "0x1p8", "0x10", "12x",
                          "abc", "nan", "inf", "-inf", "1e999999", "1,5"}) {
    EXPECT_FALSE(parse_finite_double(bad)) << bad;
  }
}

TEST(Words, SplitOnAnyRunOfWhitespace) {
  EXPECT_EQ(split_words("  response 0\t1  01\r"),
            (std::vector<std::string_view>{"response", "0", "1", "01"}));
  EXPECT_TRUE(split_words("").empty());
  EXPECT_TRUE(split_words(" \t\r\n").empty());
}

TEST(HostPortTarget, SplitsAtTheLastColon) {
  const std::optional<HostPort> a = parse_host_port("127.0.0.1:4242");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->host, "127.0.0.1");
  EXPECT_EQ(a->port, 4242);
  const std::optional<HostPort> b = parse_host_port("[::1]:80");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->host, "[::1]");
  EXPECT_EQ(b->port, 80);
}

TEST(HostPortTarget, PortBoundsAreZeroTo65535) {
  EXPECT_EQ(parse_host_port("h:0")->port, 0);
  EXPECT_EQ(parse_host_port("h:65535")->port, 65535);
  EXPECT_FALSE(parse_host_port("h:65536"));
  EXPECT_FALSE(parse_host_port("h:18446744073709551616"));
}

TEST(HostPortTarget, RejectsMissingPartsSignsAndTrailingBytes) {
  for (const char* bad : {"", "nocolon", ":80", "h:", "h:-1", "h:+80",
                          "h: 80", "h:80 ", "h:80x", "h:abc"}) {
    EXPECT_FALSE(parse_host_port(bad)) << bad;
  }
}

}  // namespace
