#pragma once
// Shared plumbing for the benchmark harness binaries.
//
// Every bench accepts:
//   --chips=N      Monte-Carlo dies per circuit (paper: 10,000; defaults
//                  here are smaller so the whole suite finishes in minutes —
//                  yields/iteration counts are unbiased, only the confidence
//                  interval shrinks with N; see EXPERIMENTS.md)
//   --circuits=a,b comma-separated subset of the 8 paper benchmarks
//   --seed=S       master seed
//   --threads=N    worker threads for the flow-driven benches (0 = all
//                  cores; results are identical for any value — DESIGN.md
//                  §8; the pure-solver ablations ignore it)
// A malformed number (--chips=abc, --chips=-1) or an unknown argument
// (--chip=5) exits 2 naming the argument, rather than running the default.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.hpp"
#include "core/problem.hpp"
#include "core/table.hpp"
#include "io/fields.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::bench {

struct BenchArgs {
  std::size_t chips = 0;  // 0 = use the binary's default
  std::vector<std::string> circuits;
  std::uint64_t seed = 2016;
  std::size_t threads = 0;  // 0 = all cores
};

/// The value of an unsigned `--name=value` argument, through the same
/// strict parser as the CLI. A malformed value is a usage error: exit 2
/// naming the argument, never an uncaught exception.
inline std::uint64_t unsigned_arg(const std::string& arg) {
  const io::UnsignedField field =
      io::parse_unsigned(std::string_view(arg).substr(arg.find('=') + 1));
  if (!field) {
    std::cerr << "error: " << arg << ": expected an unsigned integer\n";
    std::exit(2);
  }
  return field.value;
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--chips=", 0) == 0) {
      args.chips = unsigned_arg(a);
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = unsigned_arg(a);
    } else if (a.rfind("--threads=", 0) == 0) {
      args.threads = unsigned_arg(a);
    } else if (a.rfind("--circuits=", 0) == 0) {
      std::stringstream ss(a.substr(11));
      std::string piece;
      while (std::getline(ss, piece, ',')) args.circuits.push_back(piece);
    } else {
      std::cerr << "error: unknown argument: " << a << "\n";
      std::exit(2);
    }
  }
  return args;
}

inline std::vector<netlist::GeneratorSpec> selected_specs(
    const BenchArgs& args) {
  std::vector<netlist::GeneratorSpec> all = netlist::paper_benchmark_specs();
  if (args.circuits.empty()) return all;
  std::vector<netlist::GeneratorSpec> out;
  for (const std::string& name : args.circuits) {
    out.push_back(netlist::paper_benchmark_spec(name));
  }
  return out;
}

/// One fully built benchmark instance.
struct Instance {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary library;
  timing::CircuitModel model;
  core::Problem problem;

  explicit Instance(const netlist::GeneratorSpec& spec,
                    double random_inflation = 1.0)
      : circuit(netlist::generate_circuit(spec)),
        library(netlist::CellLibrary::standard()),
        model(circuit.netlist, library, circuit.buffered_ffs,
              [&] {
                timing::ModelOptions o;
                o.random_inflation = random_inflation;
                return o;
              }()),
        problem(model) {}
};

inline std::string pct(double v) { return core::Table::num(v * 100.0, 2); }

}  // namespace effitest::bench
