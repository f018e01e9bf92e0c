#include "netlist/bench_writer.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>

namespace effitest::netlist {

void write_bench(const Netlist& netlist, std::ostream& out,
                 const BenchWriteOptions& options) {
  if (options.include_header) {
    out << "# " << (netlist.name().empty() ? "netlist" : netlist.name())
        << "\n# " << netlist.primary_inputs().size() << " inputs, "
        << netlist.num_flip_flops() << " flip-flops, "
        << netlist.num_combinational_gates() << " gates\n";
  }

  for (int pi : netlist.primary_inputs()) {
    out << "INPUT(" << netlist.cell(pi).name << ")\n";
  }
  for (const Cell& c : netlist.cells()) {
    if (c.is_primary_output) out << "OUTPUT(" << c.name << ")\n";
  }
  out << '\n';

  for (const Cell& c : netlist.cells()) {
    if (c.type == CellType::kInput) continue;
    out << c.name << " = " << to_string(c.type) << '(';
    for (std::size_t i = 0; i < c.fanins.size(); ++i) {
      if (i > 0) out << ", ";
      out << netlist.cell(c.fanins[i]).name;
    }
    out << ")\n";
  }

  if (options.include_placement) {
    out << '\n';
    out << std::setprecision(10);
    for (const Cell& c : netlist.cells()) {
      out << "#!place " << c.name << ' ' << c.position.x << ' '
          << c.position.y << '\n';
    }
  }
}

void write_bench_file(const Netlist& netlist, const std::string& path,
                      const BenchWriteOptions& options) {
  std::ofstream out(path);
  if (!out) throw NetlistError("cannot open .bench file for writing: " + path);
  write_bench(netlist, out, options);
}

}  // namespace effitest::netlist
