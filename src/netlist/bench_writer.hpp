#pragma once
// ISCAS89 .bench netlist writer — the inverse of bench_parser.hpp.
//
// Lets users export generated benchmark circuits for inspection or for use
// with external EDA tools, and gives the test suite a parse/write round-trip
// oracle. Placement is not part of the .bench format; an optional sidecar
// format ("#!place name x y" comment lines, understood by
// parse_bench_with_placement and parse_bench_file) preserves it
// losslessly.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace effitest::netlist {

struct BenchWriteOptions {
  /// Emit "#!place <name> <x> <y>" comments so a round-trip keeps placement.
  bool include_placement = true;
  /// Emit a header comment with circuit statistics.
  bool include_header = true;
};

/// Serialize a netlist to ISCAS89 .bench text.
void write_bench(const Netlist& netlist, std::ostream& out,
                 const BenchWriteOptions& options = {});

void write_bench_file(const Netlist& netlist, const std::string& path,
                      const BenchWriteOptions& options = {});

}  // namespace effitest::netlist
