// effitest_perfbench — the repository's benchmark driver. See
// perfbench/README.md for the workloads, the metrics and how to run it.
//
//   effitest_perfbench --workload <tester_mc|design_prep|tester_relay>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-file <path>]
//
// Prints a human summary, then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 2 on bad arguments and 1 when a workload throws.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

Args parse(int argc, char** argv) {
  Args args;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      seen_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!seen_workload) throw std::invalid_argument("--workload is required");
  args.workers = std::min<std::size_t>(perfbench::usable_cpus(), 8);
  return args;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_line(const Result& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

/// The traced run's metrics in catalog order; layers the workload does not
/// exercise read 0.
std::vector<Metric> per_layer(const Result& r) {
  std::map<std::string, double> given;
  for (const Metric& m : r.per_layer) given[m.name] = m.value;
  std::vector<Metric> out;
  for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
    const auto it = given.find(name);
    out.push_back({name, it == given.end() ? 0.0 : it->second, unit});
    if (it != given.end()) given.erase(it);
  }
  if (!given.empty()) {
    throw std::logic_error("per-layer metric " + given.begin()->first +
                           " is missing from the catalog");
  }
  return out;
}

void print_table(const std::string& title, const std::vector<Metric>& rows) {
  std::cout << title << "\n";
  for (const Metric& m : rows) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "effitest_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    Result result;
    if (args.workload == "tester_mc") {
      result = perfbench::run_tester_mc(args);
    } else if (args.workload == "design_prep") {
      result = perfbench::run_design_prep(args);
    } else if (args.workload == "tester_relay") {
      result = perfbench::run_tester_relay(args);
    } else {
      std::cerr << "effitest_perfbench: unknown workload " << args.workload
                << " (tester_mc, design_prep, tester_relay)\n";
      return 2;
    }
    const std::vector<Metric> metrics =
        args.trace ? per_layer(result) : result.end_to_end;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        result.fail(1, "metric " + m.name + " is not finite");
      }
    }
    std::printf("workload %s, seed %llu, %g s, %zu workers, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.workers, args.trace ? 1 : 0);
    result.summary.push_back(
        {"failed_frac",
         static_cast<double>(result.failed) /
             static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
         "ratio"});
    print_table("workload metrics:", result.summary);
    print_table(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
                metrics);
    std::vector<Metric> finite;
    for (const Metric& m : metrics) {
      finite.push_back({m.name, std::isfinite(m.value) ? m.value : 0.0,
                        m.unit});
    }
    std::cout << json_line(result, finite) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "effitest_perfbench: " << args.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
