// effitest_cli — command-line front end for the EffiTest library.
//
// Subcommands:
//   help      [command]
//             Print usage (for one command or all of them).
//   generate  --circuit=<paper name> [--out=file.bench] [--seed=S]
//             Generate a clustered benchmark circuit (Table-1 statistics)
//             and optionally export it as ISCAS89 .bench with placement.
//   info      --bench=file.bench | --circuit=<name>
//             Print structural and timing statistics.
//   ssta      --bench=... | --circuit=... [--chips=N] [--threads=N]
//             [--tuned] [--criticality] [--json=file]
//             Analytic (Clark) vs Monte-Carlo untuned-period distribution.
//             --tuned adds the post-tuning analysis (src/analytic/):
//             analytic tuned-period mean/sigma/quantiles against the exact
//             per-die Monte-Carlo reference, with wall-clock for both.
//             --criticality (implies --tuned) also ranks register pairs by
//             their probability of limiting the tuned period. --json writes
//             the numbers as effitest-bench-v1 records.
//   run       --bench=... [--buffers=N] [--policy=p] | --circuit=<name>
//             [--chips=N] [--td=ps] [--quantile=q] [--no-prediction]
//             [--no-alignment] [--seed=S] [--threads=N] [--json=file]
//             Run the full EffiTest flow and print the metrics.
//   campaign  --spec=file.json | [--circuits=a,b,...]
//             [--quantiles=q1,q2,...] [--chips=N] [--seed=S] [--threads=N]
//             [--inflation=k] [--json=file] [--checkpoint=file [--resume]]
//             [--stop-after=K]
//             Fan whole-circuit / T_d-sweep jobs out across all cores with
//             FlowArtifacts reuse (Table 1/2-style multi-circuit runs from
//             one invocation). With --spec, circuits/quantiles/periods and
//             flow knobs come from a declarative scenario JSON
//             (io/scenario_json.hpp) whose catalog can mix paper,
//             .bench-imported, scaled and inline-generated circuits;
//             explicit CLI options still override the spec's knobs.
//             --checkpoint persists every finished job to an
//             effitest-checkpoint-v1 file (atomically, after each job);
//             --resume loads it back, skips the finished jobs, and — the
//             whole campaign being deterministically seeded per job —
//             produces results bit-identical to an uninterrupted run.
//             --stop-after=K stops cleanly after K pending jobs (exit 3
//             when jobs remain), which makes kill/resume testable at
//             every job boundary.
//   circuits  [--spec=file.json]
//             List the circuit catalog (paper registry, or the spec's).
//   tune      --bench=... [--buffers=N] | --circuit=<name>
//             [--chips=N] [--seed=S] [--td=ps] [--quantile=q] [--threads=N]
//             [--simulate] [--lenient] [--log=file] [--responses=file]
//             Stream per-chip TuningSessions over the line-oriented
//             stimulus/response protocol (src/io/tune_protocol.hpp):
//             stimuli on stdout, responses from stdin — or from a replayed
//             (possibly shuffled) --responses log, or self-answered with
//             --simulate (writing the would-be tester responses to --log).
//             --lenient survives malformed frames: a bad frame abandons
//             only the chip it names (`error <chip> <reason>` on stdout);
//             unattributable garbage is dropped and counted.
//             With --connect=host:port the same command becomes the tester
//             side of a networked session: it simulates its dies locally
//             (seeded by the server's greeting) and answers the server's
//             stimuli over TCP; the report lines are byte-identical to a
//             local --simulate run. td/quantile/seed/threads are
//             server-side decisions and are rejected in --connect mode.
//   serve     --bench=... | --circuit=<name> [--td/--quantile/--seed/...]
//             [--host=H] [--port=P] [--workers=N] [--max-pending=N]
//             [--window=W] [--max-chips=N] [--max-sessions=N]
//             [--io-timeout=S] [--status-port=P]
//             TCP serve mode (src/net/serve.hpp): prepare the circuit
//             once, then multiplex any number of concurrent chip-tuning
//             sessions — each a `hello effitest-tune-v1 chips=<n>`
//             connection speaking the tune protocol — across a bounded
//             worker pool. Prints `serving on <host>:<port>` on stdout
//             when ready; SIGTERM/SIGINT drain gracefully (stop accepting,
//             finish every in-flight session) and print the session
//             metrics (sessions/sec, latency p50/p90/p99) on stderr.
//             --status-port binds an extra plaintext endpoint (0 =
//             ephemeral, announced as `status on <host>:<port>`) where any
//             connection receives the live effitest-status-v1 JSON line.
//   balance   --workers=host:port,... and/or --spawn=N
//             [--circuit/--bench/... forwarded to spawned workers]
//             [--host=H] [--port=P] [--relay-workers=N] [--max-pending=N]
//             [--max-sessions=N] [--retries=N] [--io-timeout=S]
//             [--status-port=P] [--probe-interval=S]
//             Front balancer for a multi-process tuning fleet
//             (src/fleet/): accept tester connections on one port and
//             route each session to the least-loaded live worker.
//             --workers lists externally-managed serve processes;
//             --spawn=N forks N `serve --port=0` children locally
//             (restart-on-crash with backoff; circuit/flow options are
//             forwarded to them). A worker registry polls every worker's
//             status endpoint on --probe-interval and walks failures
//             through live/degraded/dead; a session whose worker dies
//             mid-run is transparently replayed on a survivor
//             (byte-identical reports — the exchange is deterministic
//             under the shared seed base), with --retries bounding the
//             re-attach attempts. Prints `balancing on <host>:<port>`
//             when ready; SIGTERM/SIGINT drain gracefully (finish every
//             in-flight session, then SIGTERM the spawned workers).
//   status    --connect=host:port [--format=json|prometheus]
//             Poll a serve or balance fleet's live metrics: print the
//             one-line effitest-status-v1 JSON (obs::MetricsRegistry
//             snapshot) on stdout and a human summary (sessions
//             done/active, sessions/sec, latency p50/p99) on stderr —
//             or, with --format=prometheus, the text exposition format
//             (the in-band `status prometheus` request). Works against
//             the serve/balance port and against a --status-port
//             endpoint — poll mid-run; nothing is perturbed.
//
// run/campaign/tune/serve also accept --log-format=text|json and
// --log-file=path: a structured event log (obs::StructuredLog,
// effitest-log-v1 JSON lines or the same data as text) of run/job/session/
// chip transitions, written to the file or to stderr when no file is
// given. Purely observational — results are bit-identical with logging on
// or off, and the perf gates run with it off (one null-pointer test per
// would-be event).
//
// Unknown options, unknown flags and stray positional arguments are
// rejected with a clear error (exit code 2) — a typo like --chip=200 must
// not silently run the defaults.
//
// Examples:
//   effitest_cli generate --circuit=s9234 --out=/tmp/s9234_like.bench
//   effitest_cli run --circuit=s13207 --chips=2000 --json=run.json
//   effitest_cli campaign --circuits=s9234,s13207 --quantiles=0.5,0.8413
//   effitest_cli tune --circuit=s9234 --chips=3 --simulate --log=resp.log
//   effitest_cli tune --circuit=s9234 --chips=3 --responses=resp.log

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analytic/engine.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "core/table.hpp"
#include "core/tuner_service.hpp"
#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "io/bench_json.hpp"
#include "io/checkpoint_json.hpp"
#include "io/json.hpp"
#include "io/scenario_json.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"
#include "timing/graph.hpp"
#include "timing/ssta.hpp"

namespace {

using namespace effitest;

struct Cli {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  std::vector<std::string> positionals;  ///< non-option args after command

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  [[nodiscard]] bool has_flag(const std::string& f) const {
    return std::find(flags.begin(), flags.end(), f) != flags.end();
  }
};

/// Usage errors discovered after option whitelisting (conflicting or
/// inapplicable combinations) — mapped to exit code 2 like any other
/// usage mistake.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Checked numeric option parsing. The raw std::stoul/std::stod calls these
/// replace terminated the process with an uncaught std::invalid_argument on
/// --chips=abc (and std::out_of_range on an oversized --seed) instead of
/// the documented usage exit code 2. Every parse names the offending
/// option and value and rejects trailing junk ("12x"), signs on unsigned
/// options ("-3") and non-finite doubles ("nan").
std::uint64_t parse_u64(const std::string& option, const std::string& value) {
  std::uint64_t out = 0;
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) {
    throw UsageError("--" + option + "=" + value +
                     " is out of range (maximum " +
                     std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                     ")");
  }
  if (ec != std::errc() || ptr != last || value.empty()) {
    throw UsageError("--" + option + "=" + value +
                     ": expected an unsigned integer");
  }
  return out;
}

std::size_t parse_size(const std::string& option, const std::string& value) {
  const std::uint64_t out = parse_u64(option, value);
  if (out > std::numeric_limits<std::size_t>::max()) {
    throw UsageError("--" + option + "=" + value + " is out of range");
  }
  return static_cast<std::size_t>(out);
}

std::uint16_t parse_port(const std::string& option, const std::string& value) {
  const std::uint64_t port = parse_u64(option, value);
  if (port > 65535) {
    throw UsageError("--" + option + "=" + value +
                     " is not a TCP port (0-65535)");
  }
  return static_cast<std::uint16_t>(port);
}

double parse_double(const std::string& option, const std::string& value) {
  double out = 0.0;
  std::size_t consumed = 0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw UsageError("--" + option + "=" + value + ": expected a number");
  } catch (const std::out_of_range&) {
    throw UsageError("--" + option + "=" + value +
                     " is out of range for a double");
  }
  if (consumed != value.size()) {
    throw UsageError("--" + option + "=" + value +
                     ": expected a number (trailing \"" +
                     value.substr(consumed) + "\")");
  }
  if (!std::isfinite(out)) {
    throw UsageError("--" + option + "=" + value +
                     ": expected a finite number");
  }
  return out;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  if (argc > 1) cli.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      cli.positionals.push_back(std::move(a));
      continue;
    }
    a = a.substr(2);
    const std::size_t eq = a.find('=');
    if (eq == std::string::npos) {
      cli.flags.push_back(a);
    } else {
      cli.options[a.substr(0, eq)] = a.substr(eq + 1);
    }
  }
  return cli;
}

/// What each command accepts. `options` take --key=value, `flags` are bare
/// --switches; anything else is rejected.
struct CommandSpec {
  std::set<std::string> options;
  std::set<std::string> flags;
  const char* usage;
};

const std::map<std::string, CommandSpec>& command_specs() {
  static const std::map<std::string, CommandSpec> specs = {
      {"help", {{}, {}, "help [command]"}},
      {"generate",
       {{"circuit", "out", "seed"},
        {},
        "generate --circuit=<name> [--out=file.bench] [--seed=S]"}},
      {"info",
       {{"bench", "circuit", "buffers", "policy", "seed"},
        {},
        "info     --bench=file | --circuit=<name> [--buffers=N] "
        "[--policy=p]"}},
      {"ssta",
       {{"bench", "circuit", "buffers", "policy", "seed", "chips", "threads",
         "json", "log-format", "log-file"},
        {"tuned", "criticality"},
        "ssta     --bench=file | --circuit=<name> [--chips=N] [--threads=N]\n"
        "         [--tuned] [--criticality] [--json=file]\n"
        "         [--log-format=text|json] [--log-file=path]"}},
      {"run",
       {{"bench", "buffers", "policy", "circuit", "chips", "td", "quantile",
         "seed", "threads", "json", "log-format", "log-file"},
        {"no-prediction", "no-alignment"},
        "run      --bench=file [--buffers=N] [--policy=p] | "
        "--circuit=<name>\n"
        "         [--chips=N] [--td=ps] [--quantile=q] [--seed=S]\n"
        "         [--no-prediction] [--no-alignment] [--threads=N]\n"
        "         [--json=file] [--log-format=text|json] "
        "[--log-file=path]"}},
      {"campaign",
       {{"spec", "circuits", "quantiles", "modes", "chips", "seed", "threads",
         "inflation", "json", "checkpoint", "stop-after", "log-format",
         "log-file"},
        {"resume"},
        "campaign --spec=file.json | [--circuits=a,b,...] "
        "[--quantiles=q1,q2,...]\n"
        "         [--modes=flow,analytic] [--chips=N] [--seed=S] "
        "[--threads=N]\n"
        "         [--inflation=k] [--json=file] [--checkpoint=file "
        "[--resume]]\n"
        "         [--stop-after=K] [--log-format=text|json] "
        "[--log-file=path]"}},
      {"circuits",
       {{"spec"}, {}, "circuits [--spec=file.json]"}},
      {"tune",
       {{"bench", "buffers", "policy", "circuit", "chips", "td", "quantile",
         "seed", "threads", "log", "responses", "connect", "connect-retries",
         "window", "log-format", "log-file"},
        {"simulate", "lenient"},
        "tune     --bench=file [--buffers=N] [--policy=p] | "
        "--circuit=<name>\n"
        "         [--chips=N] [--td=ps] [--quantile=q] [--seed=S]\n"
        "         [--threads=N] [--simulate] [--lenient] [--log=file] "
        "[--responses=file]\n"
        "         [--window=W] [--connect=host:port] [--connect-retries=N]\n"
        "         [--log-format=text|json] [--log-file=path]"}},
      {"serve",
       {{"bench", "buffers", "policy", "circuit", "td", "quantile", "seed",
         "threads", "host", "port", "workers", "max-pending", "window",
         "max-chips", "max-sessions", "io-timeout", "status-port",
         "log-format", "log-file"},
        {},
        "serve    --bench=file [--buffers=N] [--policy=p] | "
        "--circuit=<name>\n"
        "         [--td=ps] [--quantile=q] [--seed=S] [--threads=N]\n"
        "         [--host=H] [--port=P] [--workers=N] [--max-pending=N]\n"
        "         [--window=W] [--max-chips=N] [--max-sessions=N] "
        "[--io-timeout=S]\n"
        "         [--status-port=P] [--log-format=text|json] "
        "[--log-file=path]"}},
      {"balance",
       {{"workers", "spawn", "bench", "buffers", "policy", "circuit", "td",
         "quantile", "seed", "threads", "host", "port", "relay-workers",
         "max-pending", "max-sessions", "retries", "io-timeout",
         "status-port", "probe-interval", "log-format", "log-file"},
        {},
        "balance  --workers=host:port,... and/or --spawn=N\n"
        "         [--bench=file [--buffers=N] [--policy=p] | "
        "--circuit=<name>]\n"
        "         [--td=ps] [--quantile=q] [--seed=S] [--threads=N]\n"
        "         [--host=H] [--port=P] [--relay-workers=N] "
        "[--max-pending=N]\n"
        "         [--max-sessions=N] [--retries=N] [--io-timeout=S]\n"
        "         [--status-port=P] [--probe-interval=S] "
        "[--log-format=text|json] [--log-file=path]"}},
      {"status",
       {{"connect", "format"},
        {},
        "status   --connect=host:port [--format=json|prometheus]"}},
  };
  return specs;
}

void usage(std::ostream& os) {
  os << "usage: effitest_cli <command> [options]\ncommands:\n";
  // Stable presentation order (not the map's alphabetical one).
  for (const char* name : {"help", "generate", "info", "ssta", "run",
                           "campaign", "circuits", "tune", "serve",
                           "balance", "status"}) {
    os << "  " << command_specs().at(name).usage << '\n';
  }
  os << "paper circuits: s9234 s13207 s15850 s38584 mem_ctrl usb_funct "
        "ac97_ctrl pci_bridge32\n"
        "extended circuits (full ISCAS89 scale): s35932 s38417\n"
        "buffer policies (--policy, .bench imports): hub-count worst-delay\n";
}

std::string join_sorted(const std::set<std::string>& names,
                        const char* prefix) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ' ';
    out += prefix;
    out += n;
  }
  return out;
}

/// Reject unknown options/flags/positionals. Returns 0 when valid.
int validate_cli(const Cli& cli) {
  const auto it = command_specs().find(cli.command);
  if (it == command_specs().end()) {
    std::cerr << "error: unknown command '" << cli.command << "'\n";
    usage(std::cerr);
    return 2;
  }
  const CommandSpec& spec = it->second;
  for (const auto& [key, value] : cli.options) {
    if (spec.options.count(key) != 0) continue;
    std::cerr << "error: unknown option --" << key << "=" << value
              << " for command '" << cli.command << "'\n";
    if (spec.flags.count(key) != 0) {
      std::cerr << "(--" << key << " is a flag and takes no value)\n";
    } else if (!spec.options.empty()) {
      std::cerr << "valid options: " << join_sorted(spec.options, "--")
                << '\n';
    }
    return 2;
  }
  for (const std::string& flag : cli.flags) {
    if (spec.flags.count(flag) != 0) continue;
    std::cerr << "error: unknown flag --" << flag << " for command '"
              << cli.command << "'\n";
    if (spec.options.count(flag) != 0) {
      std::cerr << "(--" << flag << " needs a value: --" << flag << "=...)\n";
    } else if (!spec.flags.empty()) {
      std::cerr << "valid flags: " << join_sorted(spec.flags, "--") << '\n';
    }
    return 2;
  }
  // `help <command>` is the one legal positional.
  if (!cli.positionals.empty() && cli.command != "help") {
    std::cerr << "error: unexpected argument '" << cli.positionals.front()
              << "' for command '" << cli.command
              << "' (options are --key=value)\n";
    return 2;
  }
  return 0;
}

int cmd_help(const Cli& cli) {
  if (!cli.positionals.empty()) {
    const auto it = command_specs().find(cli.positionals.front());
    if (it == command_specs().end()) {
      std::cerr << "error: unknown command '" << cli.positionals.front()
                << "'\n";
      usage(std::cerr);
      return 2;
    }
    std::cout << "usage: effitest_cli " << it->second.usage << '\n';
    return 0;
  }
  usage(std::cout);
  return 0;
}

/// CLI flags -> CircuitSpec: the one-shot catalog entry run/info/ssta/tune
/// resolve through. The buffer-insertion stand-in and model assembly live
/// in scenario::CircuitCatalog — the same construction path campaigns and
/// scenario specs use.
std::shared_ptr<const scenario::PreparedCircuit> provision_circuit(
    const Cli& cli) {
  scenario::CircuitCatalog catalog;
  std::string name;
  if (const auto circuit = cli.get("circuit")) {
    // No-silent-surprises: these knobs only shape .bench imports
    // (generated circuits carry their own buffer set).
    if (cli.get("buffers") || cli.get("policy")) {
      throw UsageError(
          "--buffers/--policy apply to --bench imports only; --circuit "
          "circuits carry their own buffer set");
    }
    scenario::PaperCircuit spec{*circuit, std::nullopt};
    if (const auto seed = cli.get("seed")) {
      spec.seed = parse_u64("seed", *seed);
    }
    name = *circuit;
    catalog.add(name, spec);
  } else if (const auto path = cli.get("bench")) {
    scenario::BenchCircuit spec;
    spec.path = *path;
    if (const auto buffers = cli.get("buffers")) {
      spec.num_buffers = parse_size("buffers", *buffers);
    }
    if (const auto policy = cli.get("policy")) {
      spec.policy = scenario::buffer_policy_from(*policy);
    }
    name = "bench";
    catalog.add(name, spec);
  } else {
    throw std::runtime_error("need --circuit=<name> or --bench=<file>");
  }
  return catalog.resolve(name);
}

/// The one shared --log-format/--log-file implementation (run, campaign,
/// tune and serve all resolve through here; every other command rejects
/// the options via its whitelist). Logging is enabled iff at least one of
/// the two options is present: the format defaults to JSON, the sink to
/// stderr. `log` stays nullptr when logging is off — the zero-overhead
/// contract call sites rely on.
struct LogSink {
  std::unique_ptr<obs::StructuredLog> owned;
  obs::StructuredLog* log = nullptr;
};

LogSink make_structured_log(const Cli& cli) {
  LogSink sink;
  const auto format_text = cli.get("log-format");
  const auto file_path = cli.get("log-file");
  if (!format_text && !file_path) return sink;
  obs::LogFormat format = obs::LogFormat::kJson;
  if (format_text && !obs::parse_log_format(*format_text, format)) {
    throw UsageError("--log-format=" + *format_text +
                     ": expected text or json");
  }
  if (file_path) {
    sink.owned = obs::StructuredLog::open_file(*file_path, format);
  } else {
    // std::clog: stderr, buffered — event lines never interleave with the
    // command's stdout tables/JSON announcements.
    sink.owned = std::make_unique<obs::StructuredLog>(std::clog, format);
  }
  sink.log = sink.owned.get();
  return sink;
}

/// `host:port` → (host, port) with the usual usage-error reporting.
std::pair<std::string, std::uint16_t> split_host_port(
    const std::string& option, const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    throw UsageError("--" + option + "=" + target + ": expected host:port");
  }
  return {target.substr(0, colon),
          parse_port(option, target.substr(colon + 1))};
}

int cmd_generate(const Cli& cli) {
  const auto name = cli.get("circuit");
  if (!name) throw std::runtime_error("generate needs --circuit=<name>");
  netlist::GeneratorSpec spec = netlist::paper_benchmark_spec(*name);
  if (const auto seed = cli.get("seed")) spec.seed = parse_u64("seed", *seed);
  const netlist::GeneratedCircuit gen = netlist::generate_circuit(spec);
  std::cout << "generated " << spec.name << ": "
            << gen.netlist.num_flip_flops() << " FFs, "
            << gen.netlist.num_combinational_gates() << " gates, "
            << gen.buffered_ffs.size() << " buffers, "
            << gen.critical_edges.size() << " monitored paths\n";
  if (const auto out = cli.get("out")) {
    netlist::write_bench_file(gen.netlist, *out);
    std::cout << "wrote " << *out << " (with #!place placement sidecar)\n";
    std::cout << "buffered flip-flops:";
    for (int ff : gen.buffered_ffs) {
      std::cout << ' ' << gen.netlist.cell(ff).name;
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_info(const Cli& cli) {
  const auto circuit = provision_circuit(cli);
  const timing::TimingGraph graph(circuit->netlist, circuit->library);
  std::cout << "circuit:            " << circuit->netlist.name() << '\n'
            << "primary inputs:     "
            << circuit->netlist.primary_inputs().size() << '\n'
            << "flip-flops:         " << circuit->netlist.num_flip_flops()
            << '\n'
            << "combinational:      "
            << circuit->netlist.num_combinational_gates() << '\n'
            << "FF-pair edges:      " << graph.all_pair_delays().size() << '\n'
            << "critical delay:     " << graph.nominal_critical_delay()
            << " ps\n"
            << "tuning buffers:     " << circuit->buffered_ffs.size() << '\n'
            << "monitored paths:    " << circuit->model.num_pairs() << '\n'
            << "discarded (static): " << circuit->model.num_discarded_pairs()
            << '\n';
  return 0;
}

int cmd_ssta(const Cli& cli) {
  const LogSink sink = make_structured_log(cli);
  const auto circuit = provision_circuit(cli);
  const timing::VariationModel variation(timing::VariationParams{},
                                         circuit->library);
  const timing::CanonicalDelay analytic = timing::ssta_required_period(
      circuit->netlist, circuit->library, variation);

  const core::Problem& problem = circuit->problem;
  const std::size_t chips =
      cli.get("chips") ? parse_size("chips", *cli.get("chips")) : 4000;
  const std::size_t threads =
      cli.get("threads") ? parse_size("threads", *cli.get("threads")) : 0;
  const bool criticality = cli.has_flag("criticality");
  const bool tuned = cli.has_flag("tuned") || criticality;
  if (sink.log != nullptr) {
    sink.log->emit(
        "ssta", "ssta_begin",
        {obs::LogField::str("circuit", circuit->netlist.name()),
         obs::LogField::u64("chips", static_cast<std::uint64_t>(chips)),
         obs::LogField::boolean("tuned", tuned)});
  }
  stats::Rng rng(11);
  const double mc_t1 = core::period_quantile(problem, 0.5, chips, rng);
  stats::Rng rng2(11);
  const double mc_t2 = core::period_quantile(problem, 0.8413, chips, rng2);

  core::Table t({"quantity", "analytic (Clark)", "Monte-Carlo"});
  t.add_row({"mean required period (ps)", core::Table::num(analytic.mean, 2),
             "-"});
  t.add_row({"sigma (ps)", core::Table::num(analytic.sigma(), 2), "-"});
  t.add_row({"T1 = 50% quantile", core::Table::num(analytic.quantile(0.5), 2),
             core::Table::num(mc_t1, 2)});
  t.add_row({"T2 = 84.13% quantile",
             core::Table::num(analytic.quantile(0.8413), 2),
             core::Table::num(mc_t2, 2)});

  // Post-tuning analysis: the analytic engine vs the exact per-die
  // Monte-Carlo reference on the same contracted constraint graph.
  std::optional<analytic::TunedPeriodAnalysis> tuned_analysis;
  analytic::McTunedPeriod tuned_mc;
  double analytic_seconds = 0.0;
  double mc_seconds = 0.0;
  if (tuned) {
    const auto a0 = std::chrono::steady_clock::now();
    tuned_analysis = analytic::analyze_tuned_period(problem);
    analytic_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - a0)
            .count();
    analytic::McTunedOptions mopts;
    mopts.chips = chips;
    mopts.threads = threads;
    const auto m0 = std::chrono::steady_clock::now();
    tuned_mc = analytic::mc_tuned_period(problem, mopts);
    mc_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
            .count();
    t.add_row({"tuned mean (ps)",
               core::Table::num(tuned_analysis->tuned.mean, 2),
               core::Table::num(tuned_mc.mean, 2)});
    t.add_row({"tuned sigma (ps)",
               core::Table::num(tuned_analysis->tuned.sigma(), 2),
               core::Table::num(tuned_mc.sigma, 2)});
    t.add_row({"tuned T1 = 50% quantile",
               core::Table::num(tuned_analysis->tuned_quantile(0.5), 2),
               core::Table::num(tuned_mc.quantile(0.5), 2)});
    t.add_row({"tuned T2 = 84.13% quantile",
               core::Table::num(tuned_analysis->tuned_quantile(0.8413), 2),
               core::Table::num(tuned_mc.quantile(0.8413), 2)});
  }
  t.print(std::cout);
  if (tuned) {
    std::cout << "post-tuning analysis: " << tuned_analysis->candidates.size()
              << " candidate cycle(s), engine "
              << core::Table::num(analytic_seconds * 1e3, 2) << " ms vs "
              << chips << "-chip MC "
              << core::Table::num(mc_seconds * 1e3, 2) << " ms\n";
  }

  if (criticality) {
    // Rank register pairs by their probability of limiting the tuned
    // period (candidate mass split over each dominant cycle).
    std::vector<std::size_t> order(tuned_analysis->pair_criticality.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return tuned_analysis->pair_criticality[a] >
             tuned_analysis->pair_criticality[b];
    });
    core::Table ct({"pair", "src FF", "dst FF", "criticality (%)"});
    std::size_t shown = 0;
    for (const std::size_t p : order) {
      if (shown >= 10 || tuned_analysis->pair_criticality[p] < 1e-6) break;
      const timing::MonitoredPair& pair = circuit->model.pairs()[p];
      ct.add_row({core::Table::num(p),
                  circuit->netlist.cell(pair.src_ff).name,
                  circuit->netlist.cell(pair.dst_ff).name,
                  core::Table::num(
                      tuned_analysis->pair_criticality[p] * 100, 2)});
      ++shown;
    }
    std::cout << "\npost-tuning criticality (top " << shown << " of "
              << tuned_analysis->pair_criticality.size() << " pairs, "
              << core::Table::num(tuned_analysis->static_criticality * 100, 2)
              << "% on static background):\n";
    ct.print(std::cout);
  }

  if (sink.log != nullptr) {
    if (tuned) {
      sink.log->emit(
          "ssta", "ssta_complete",
          {obs::LogField::str("circuit", circuit->netlist.name()),
           obs::LogField::f64("untuned_mean", analytic.mean),
           obs::LogField::f64("untuned_sigma", analytic.sigma()),
           obs::LogField::f64("mc_t1", mc_t1),
           obs::LogField::f64("tuned_mean", tuned_analysis->tuned.mean),
           obs::LogField::f64("tuned_sigma", tuned_analysis->tuned.sigma()),
           obs::LogField::f64("mc_tuned_mean", tuned_mc.mean)});
    } else {
      sink.log->emit(
          "ssta", "ssta_complete",
          {obs::LogField::str("circuit", circuit->netlist.name()),
           obs::LogField::f64("untuned_mean", analytic.mean),
           obs::LogField::f64("untuned_sigma", analytic.sigma()),
           obs::LogField::f64("mc_t1", mc_t1)});
    }
  }

  if (const auto json_path = cli.get("json")) {
    io::JsonReporter json("ssta", threads);
    const std::string label = circuit->netlist.name();
    const auto record = [&](const char* metric, double value,
                            double seconds) {
      json.add(label, metric, value, seconds);
    };
    record("untuned_mean", analytic.mean, 0.0);
    record("untuned_sigma", analytic.sigma(), 0.0);
    record("mc_t1", mc_t1, 0.0);
    record("mc_t2", mc_t2, 0.0);
    if (tuned) {
      record("tuned_mean", tuned_analysis->tuned.mean, analytic_seconds);
      record("tuned_sigma", tuned_analysis->tuned.sigma(), analytic_seconds);
      record("mc_tuned_mean", tuned_mc.mean, mc_seconds);
      record("mc_tuned_sigma", tuned_mc.sigma, mc_seconds);
    }
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  return 0;
}

/// Shared run/tune option plumbing: chips/seed/td/quantile/threads plus the
/// prediction/alignment switches.
core::FlowOptions flow_options_from(const Cli& cli,
                                    const core::Problem& problem) {
  core::FlowOptions opts;
  if (const auto chips = cli.get("chips")) {
    opts.chips = parse_size("chips", *chips);
  }
  if (const auto seed = cli.get("seed")) opts.seed = parse_u64("seed", *seed);
  if (const auto td = cli.get("td")) {
    opts.designated_period = parse_double("td", *td);
  }
  opts.use_prediction = !cli.has_flag("no-prediction");
  opts.test.align_with_buffers = !cli.has_flag("no-alignment");
  if (const auto threads = cli.get("threads")) {
    opts.threads = parse_size("threads", *threads);
  }
  if (const auto q = cli.get("quantile")) {
    stats::Rng rng(opts.seed ^ core::kQuantileCalibrationSeedXor);
    opts.designated_period =
        core::period_quantile(problem, parse_double("quantile", *q), 2000, rng);
  }
  return opts;
}

int cmd_run(const Cli& cli) {
  const LogSink sink = make_structured_log(cli);  // bad --log-format: fast
  const auto circuit = provision_circuit(cli);
  if (circuit->model.num_pairs() == 0) {
    std::cout << "no monitored paths (no FF pair touches a buffer)\n";
    return 1;
  }
  const core::FlowOptions opts = flow_options_from(cli, circuit->problem);

  if (sink.log != nullptr) {
    sink.log->emit(
        "run", "run_begin",
        {obs::LogField::str("circuit", circuit->netlist.name()),
         obs::LogField::u64("chips", static_cast<std::uint64_t>(opts.chips)),
         obs::LogField::u64("seed", opts.seed)});
  }
  const core::FlowResult r = core::run_flow(circuit->problem, opts);
  const core::FlowMetrics& m = r.metrics;
  if (sink.log != nullptr) {
    sink.log->emit("run", "run_complete",
                   {obs::LogField::str("circuit", circuit->netlist.name()),
                    obs::LogField::f64("td", m.designated_period),
                    obs::LogField::f64("ta", m.ta),
                    obs::LogField::f64("ra", m.ra),
                    obs::LogField::f64("yield_proposed", m.yield_proposed)});
  }
  core::Table t({"metric", "value"});
  t.add_row(
      {"designated period (ps)", core::Table::num(m.designated_period, 2)});
  t.add_row({"monitored paths np", core::Table::num(m.np)});
  t.add_row({"tested paths npt", core::Table::num(m.npt)});
  t.add_row({"batches", core::Table::num(m.num_batches)});
  t.add_row({"epsilon (ps)", core::Table::num(m.epsilon_ps, 3)});
  t.add_row({"iterations/chip ta", core::Table::num(m.ta, 2)});
  t.add_row({"iterations/tested path tv", core::Table::num(m.tv, 2)});
  t.add_row({"path-wise t'a", core::Table::num(m.ta_pathwise, 0)});
  t.add_row({"reduction ra (%)", core::Table::num(m.ra, 2)});
  t.add_row({"reduction rv (%)", core::Table::num(m.rv, 2)});
  t.add_row(
      {"yield untuned (%)", core::Table::num(m.yield_no_buffer * 100, 2)});
  t.add_row(
      {"yield proposed yt (%)", core::Table::num(m.yield_proposed * 100, 2)});
  t.add_row({"yield ideal yi (%)", core::Table::num(m.yield_ideal * 100, 2)});
  t.add_row({"yield drop yr (%)", core::Table::num(m.yield_drop * 100, 2)});
  t.add_row({"prep Tp (s)", core::Table::num(m.tp_seconds, 3)});
  t.add_row({"align Tt (s/chip)", core::Table::num(m.tt_seconds_per_chip, 5)});
  t.add_row({"config Ts (s/chip)", core::Table::num(m.ts_seconds_per_chip, 5)});
  t.print(std::cout);

  if (const auto json_path = cli.get("json")) {
    io::JsonReporter json("run", opts.threads);
    const std::string label = circuit->netlist.name();
    const auto record = [&](const char* metric, double value) {
      json.add(label, metric, value);
    };
    record("td", m.designated_period);
    record("epsilon", m.epsilon_ps);
    record("np", static_cast<double>(m.np));
    record("npt", static_cast<double>(m.npt));
    record("ta", m.ta);
    record("tv", m.tv);
    record("t'a", m.ta_pathwise);
    record("t'v", m.tv_pathwise);
    record("ra", m.ra);
    record("rv", m.rv);
    record("yield_no_buffer", m.yield_no_buffer);
    record("yield_proposed", m.yield_proposed);
    record("yield_ideal", m.yield_ideal);
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string piece = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cmd_campaign(const Cli& cli) {
  const LogSink sink = make_structured_log(cli);
  core::CampaignOptions copts;
  std::vector<core::CampaignJob> jobs;

  if (const auto spec_path = cli.get("spec")) {
    if (cli.get("circuits") || cli.get("quantiles") || cli.get("modes")) {
      std::cerr << "error: campaign: --spec carries its own circuits, "
                   "quantiles and modes; drop --circuits/--quantiles/"
                   "--modes\n";
      return 2;
    }
    io::Scenario scenario = io::load_scenario_file(*spec_path);
    copts = std::move(scenario.options);
    jobs = std::move(scenario.jobs);
    std::cout << "scenario " << scenario.name << ": " << jobs.size()
              << " job(s) over " << scenario.catalog->names().size()
              << " registered circuit(s)\n";
  }

  // Explicit CLI options override the spec's knobs (and fill the defaults
  // of the spec-less path).
  if (const auto chips = cli.get("chips")) {
    copts.flow.chips = parse_size("chips", *chips);
  }
  if (const auto seed = cli.get("seed")) {
    copts.flow.seed = parse_u64("seed", *seed);
  }
  if (const auto threads = cli.get("threads")) {
    // flow.threads of 0 inherits this
    copts.threads = parse_size("threads", *threads);
  }
  if (const auto inflation = cli.get("inflation")) {
    copts.random_inflation = parse_double("inflation", *inflation);
  }

  if (!cli.get("spec")) {
    std::vector<std::string> circuits;
    if (const auto names = cli.get("circuits")) {
      circuits = split_list(*names);
    } else {
      for (const netlist::GeneratorSpec& spec :
           netlist::paper_benchmark_specs()) {
        circuits.push_back(spec.name);
      }
    }
    std::vector<double> quantiles;
    if (const auto qs = cli.get("quantiles")) {
      for (const std::string& q : split_list(*qs)) {
        quantiles.push_back(parse_double("quantiles", q));
      }
    }
    std::vector<core::JobKind> kinds;
    if (const auto modes = cli.get("modes")) {
      for (const std::string& mode : split_list(*modes)) {
        try {
          kinds.push_back(core::job_kind_from(mode));
        } catch (const std::invalid_argument& e) {
          std::cerr << "error: campaign: --modes: " << e.what() << '\n';
          return 2;
        }
      }
    }
    jobs = core::CampaignRunner::cross(circuits, quantiles, kinds);
  }

  // Checkpoint/resume plumbing (io/checkpoint_json.hpp). The identity hash
  // covers the result-affecting options and the full job list, so a
  // checkpoint from a different campaign is rejected before anything runs.
  const auto checkpoint_path = cli.get("checkpoint");
  const bool resume = cli.has_flag("resume");
  if (resume && !checkpoint_path) {
    std::cerr << "error: campaign: --resume needs --checkpoint=<file>\n";
    return 2;
  }
  if (const auto stop = cli.get("stop-after")) {
    copts.max_jobs = parse_size("stop-after", *stop);
    if (copts.max_jobs == 0) {
      std::cerr << "error: campaign: --stop-after must be at least 1\n";
      return 2;
    }
  }
  std::unique_ptr<io::CheckpointWriter> writer;
  if (checkpoint_path) {
    const std::string identity = io::campaign_identity(jobs, copts);
    if (resume) {
      io::CampaignCheckpoint loaded =
          io::load_campaign_checkpoint(*checkpoint_path);
      io::validate_campaign_checkpoint(loaded, identity, jobs.size(),
                                       *checkpoint_path);
      std::cout << "resuming " << *checkpoint_path << ": "
                << loaded.completed.size() << "/" << jobs.size()
                << " job(s) already done\n";
      copts.completed = std::move(loaded.completed);
    } else if (std::ifstream(*checkpoint_path).good()) {
      // Never clobber a checkpoint silently: it may belong to a run the
      // user meant to resume.
      std::cerr << "error: campaign: checkpoint " << *checkpoint_path
                << " already exists; pass --resume to continue it or remove "
                   "it first\n";
      return 2;
    }
    writer = std::make_unique<io::CheckpointWriter>(
        *checkpoint_path, identity, jobs.size(), copts.completed);
    copts.on_job_complete = [&writer](std::size_t index,
                                      const core::CampaignJobResult& r) {
      writer->record(index, r);
    };
  }
  copts.log = sink.log;  // one job_complete event per finished job

  const core::CampaignResult result = core::CampaignRunner(copts).run(jobs);

  core::Table t({"circuit", "kind", "q", "Td(ps)", "np", "npt", "ta",
                 "ra(%)", "yt(%)", "yi(%)", "y0(%)", "job(s)"});
  for (const core::CampaignJobResult& r : result.jobs) {
    if (!r.completed) continue;  // left pending by --stop-after
    const core::FlowMetrics& m = r.metrics;
    const bool is_analytic = r.job.kind == core::JobKind::kAnalytic;
    t.add_row({
        r.job.circuit,
        core::job_kind_name(r.job.kind),
        r.job.quantile >= 0.0
            ? core::Table::num(r.job.quantile, 4)
            : (r.job.designated_period > 0.0 ? "Td" : "T1"),
        core::Table::num(m.designated_period, 2),
        core::Table::num(m.np),
        is_analytic ? "-" : core::Table::num(m.npt),
        is_analytic ? "-" : core::Table::num(m.ta, 2),
        is_analytic ? "-" : core::Table::num(m.ra, 2),
        is_analytic ? "-" : core::Table::num(m.yield_proposed * 100, 2),
        core::Table::num(m.yield_ideal * 100, 2),
        core::Table::num(m.yield_no_buffer * 100, 2),
        core::Table::num(r.seconds, 2),
    });
  }
  t.print(std::cout);
  const std::size_t done = result.completed_jobs();
  double job_seconds = 0.0;
  for (const core::CampaignJobResult& r : result.jobs) job_seconds += r.seconds;
  std::cout << "\ncampaign wall time: "
            << core::Table::num(result.total_seconds, 2) << " s (" << done
            << "/" << result.jobs.size() << " jobs, "
            << core::Table::num(job_seconds, 2)
            << " s of job time; artifacts reused within circuits)\n";

  if (const auto json_path = cli.get("json")) {
    io::JsonReporter json("campaign", copts.threads);
    for (const core::CampaignJobResult& r : result.jobs) {
      if (!r.completed) continue;
      const core::FlowMetrics& m = r.metrics;
      // One label per (circuit, kind, quantile/period) so sweep jobs stay
      // distinct.
      std::string label = r.job.circuit;
      if (r.job.kind != core::JobKind::kFlow) {
        label += std::string("@") + core::job_kind_name(r.job.kind);
      }
      if (r.job.quantile >= 0.0) {
        label += "@q" + core::Table::num(r.job.quantile, 4);
      } else if (r.job.designated_period > 0.0) {
        label += "@td" + core::Table::num(r.job.designated_period, 2);
      }
      const auto record = [&](const char* metric, double value) {
        json.add(label, metric, value, r.seconds);
      };
      record("td", m.designated_period);
      record("np", static_cast<double>(m.np));
      record("yield_no_buffer", m.yield_no_buffer);
      record("yield_ideal", m.yield_ideal);
      if (r.job.kind == core::JobKind::kAnalytic) {
        record("untuned_mean", m.untuned_mean);
        record("untuned_sigma", m.untuned_sigma);
        record("tuned_mean", m.tuned_mean);
        record("tuned_sigma", m.tuned_sigma);
      } else {
        record("npt", static_cast<double>(m.npt));
        record("ta", m.ta);
        record("t'v", m.tv_pathwise);
        record("ra", m.ra);
        record("rv", m.rv);
        record("yield_proposed", m.yield_proposed);
      }
    }
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  if (done < result.jobs.size()) {
    std::cout << "campaign stopped after " << done << "/" << result.jobs.size()
              << " job(s)";
    if (checkpoint_path) {
      std::cout << " — resume with --checkpoint=" << *checkpoint_path
                << " --resume";
    }
    std::cout << '\n';
    return 3;  // distinct from success (0) and usage/runtime errors (2/1)
  }
  return 0;
}

int cmd_circuits(const Cli& cli) {
  std::shared_ptr<const scenario::CircuitCatalog> catalog;
  if (const auto spec_path = cli.get("spec")) {
    catalog = io::load_scenario_file(*spec_path).catalog;
  } else {
    catalog = scenario::CircuitCatalog::shared_paper();
  }
  core::Table t({"circuit", "spec"});
  for (const std::string& name : catalog->names()) {
    t.add_row({name, catalog->describe(name)});
  }
  t.print(std::cout);
  std::cout << "(campaign jobs name these; resolve is memoized per "
               "(circuit, inflation))\n";
  return 0;
}

/// The tester side of a networked session (`tune --connect=host:port`):
/// provision the circuit locally (the variation model is all a simulated
/// tester needs — no offline phase), run one session against the server,
/// and echo its report lines on stdout.
int cmd_tune_connect(const Cli& cli, const std::string& target) {
  // Everything the server decides is rejected loudly rather than silently
  // ignored: designated period, seeding and threading all live server-side.
  for (const char* opt : {"responses", "log", "td", "quantile", "seed",
                          "threads", "log-format", "log-file"}) {
    if (cli.get(opt)) {
      throw UsageError(std::string("tune: --") + opt +
                       " is a server-side decision in --connect mode");
    }
  }
  if (cli.has_flag("simulate")) {
    throw UsageError(
        "tune: --simulate and --connect are mutually exclusive (a connected "
        "session already simulates its dies against the server)");
  }
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    throw UsageError("--connect=" + target + ": expected host:port");
  }
  const std::string host = target.substr(0, colon);
  const std::uint16_t port = parse_port("connect", target.substr(colon + 1));

  const auto circuit = provision_circuit(cli);
  if (circuit->model.num_pairs() == 0) {
    std::cerr << "no monitored paths (no FF pair touches a buffer)\n";
    return 1;
  }
  net::ClientOptions copts;
  if (const auto chips = cli.get("chips")) {
    copts.chips = parse_size("chips", *chips);
  }
  if (const auto window = cli.get("window")) {
    copts.window = parse_size("window", *window);
  }
  if (const auto retries = cli.get("connect-retries")) {
    copts.connect_retries = parse_size("connect-retries", *retries);
  }
  copts.lenient = cli.has_flag("lenient");
  const net::ClientResult result =
      net::run_loopback_client(host, port, circuit->problem, copts);
  for (const std::string& line : result.report_lines) {
    std::cout << line << '\n';
  }
  for (const std::string& line : result.error_lines) {
    std::cerr << line << '\n';
  }
  std::cerr << "tuned " << result.report_lines.size() << " chip(s) over "
            << host << ':' << port << " (session " << result.session_id
            << ", seed " << result.seed_base << ", "
            << result.stimuli_answered << " tester iterations)";
  if (!result.error_lines.empty()) {
    std::cerr << " (" << result.error_lines.size() << " chip(s) abandoned)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_tune(const Cli& cli) {
  if (const auto target = cli.get("connect")) {
    return cmd_tune_connect(cli, *target);
  }
  if (cli.get("connect-retries")) {
    throw UsageError(
        "tune: --connect-retries only applies with --connect=host:port");
  }
  // Mode exclusivity up front, in the same no-silent-surprises spirit (and
  // with the same usage exit code 2) as the option whitelists: --simulate
  // answers stimuli itself, so a --responses log would be ignored; --log
  // records the simulated responses and means nothing without --simulate.
  if (cli.has_flag("simulate") && cli.get("responses")) {
    std::cerr << "error: tune: --simulate and --responses are mutually "
                 "exclusive\n";
    return 2;
  }
  if (cli.get("log") && !cli.has_flag("simulate")) {
    std::cerr << "error: tune: --log only records simulated responses; "
                 "combine it with --simulate\n";
    return 2;
  }
  const LogSink sink = make_structured_log(cli);
  const auto circuit = provision_circuit(cli);
  if (circuit->model.num_pairs() == 0) {
    std::cerr << "no monitored paths (no FF pair touches a buffer)\n";
    return 1;
  }
  core::FlowOptions opts = flow_options_from(cli, circuit->problem);
  const std::size_t chips = cli.get("chips")
                                ? parse_size("chips", *cli.get("chips"))
                                : std::size_t{1};

  // The shared-ownership constructor: the service keeps the provisioned
  // bundle alive for every session it mints.
  const core::TunerService service(circuit, opts);
  io::TuneServerOptions topts;
  topts.lenient = cli.has_flag("lenient");
  if (const auto window = cli.get("window")) {
    topts.chip_window = parse_size("window", *window);
  }
  topts.log = sink.log;  // per-chip begin/final_test/report events
  io::TuneServer server(service, chips, topts);

  io::TuneServerResult result;
  if (cli.has_flag("simulate")) {
    std::ofstream log;
    std::ostream* log_stream = nullptr;
    if (const auto log_path = cli.get("log")) {
      log.open(*log_path);
      if (!log) {
        throw std::runtime_error("tune: cannot open --log file " + *log_path);
      }
      log_stream = &log;
    }
    result = server.run_simulated(std::cout, log_stream);
  } else if (const auto responses = cli.get("responses")) {
    std::ifstream in(*responses);
    if (!in) {
      throw std::runtime_error("tune: cannot open --responses file " +
                               *responses);
    }
    result = server.run(in, std::cout);
  } else {
    result = server.run(std::cin, std::cout);
  }

  std::size_t passed = 0;
  for (const core::ChipReport& r : result.reports) {
    if (r.passed.value_or(false)) ++passed;
  }
  std::size_t errored = 0;
  for (std::size_t c = 0; c < result.errors.size(); ++c) {
    if (result.errors[c].empty()) continue;
    ++errored;
    std::cerr << "chip " << c << " abandoned: " << result.errors[c] << '\n';
  }
  std::cerr << "tuned " << result.reports.size() - errored << " chip(s), "
            << result.stimuli << " tester iterations, " << passed
            << " passed at Td="
            << core::Table::num(service.designated_period(), 2) << " ps";
  if (errored > 0 || result.dropped_lines > 0) {
    std::cerr << " (" << errored << " chip(s) abandoned, "
              << result.dropped_lines << " line(s) dropped)";
  }
  std::cerr << '\n';
  return 0;
}

/// The listener/drain flags `serve` and `balance` share
/// (net::ServerOptions).
void parse_server_options(const Cli& cli, net::ServerOptions& options) {
  if (const auto host = cli.get("host")) options.host = *host;
  if (const auto port = cli.get("port")) {
    options.port = parse_port("port", *port);
  }
  if (const auto status_port = cli.get("status-port")) {
    options.status_port =
        static_cast<int>(parse_port("status-port", *status_port));
  }
  if (const auto pending = cli.get("max-pending")) {
    options.max_pending = parse_size("max-pending", *pending);
  }
  if (const auto sessions = cli.get("max-sessions")) {
    options.max_sessions = parse_size("max-sessions", *sessions);
  }
  if (const auto timeout = cli.get("io-timeout")) {
    options.io_timeout_seconds = parse_double("io-timeout", *timeout);
  }
}

/// SIGTERM/SIGINT drain hook for `serve` and `balance` — the handler may
/// only do what request_drain() guarantees is async-signal-safe (atomic
/// store plus one pipe write).
net::SessionServer* g_draining_server = nullptr;

extern "C" void drain_signal_handler(int) {
  if (g_draining_server != nullptr) g_draining_server->request_drain();
}

/// The lifetime of a started `server`: route SIGTERM/SIGINT to its
/// request_drain(), print the banner scripts wait for (std::endl flushes,
/// so a pipe reader sees it before the first session lands) and block in
/// wait() until the last session finished.
void run_until_drained(net::SessionServer& server, const char* verb) {
  g_draining_server = &server;
  std::signal(SIGTERM, drain_signal_handler);
  std::signal(SIGINT, drain_signal_handler);
  std::cout << verb << " on " << server.host() << ":" << server.port()
            << std::endl;
  if (server.status_port() != 0) {  // 0 = no status listener
    std::cout << "status on " << server.host() << ":" << server.status_port()
              << std::endl;
  }
  server.wait();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_draining_server = nullptr;
}

int cmd_serve(const Cli& cli) {
  // Options first, so a typo fails in milliseconds instead of after the
  // offline phase.
  const LogSink sink = make_structured_log(cli);
  net::ServeOptions sopts;
  sopts.log = sink.log;
  parse_server_options(cli, sopts);
  if (const auto workers = cli.get("workers")) {
    sopts.workers = parse_size("workers", *workers);
    if (sopts.workers == 0) {
      throw UsageError("--workers must be at least 1");
    }
  }
  if (const auto window = cli.get("window")) {
    sopts.chip_window = parse_size("window", *window);
  }
  if (const auto chips = cli.get("max-chips")) {
    sopts.max_chips_per_session = parse_size("max-chips", *chips);
  }

  const auto circuit = provision_circuit(cli);
  if (circuit->model.num_pairs() == 0) {
    std::cerr << "no monitored paths (no FF pair touches a buffer)\n";
    return 1;
  }
  core::FlowOptions opts = flow_options_from(cli, circuit->problem);
  const core::TunerService service(circuit, opts);

  net::TuneServeLoop loop(service, sopts);
  loop.start();
  run_until_drained(loop, "serving");

  const obs::RegistrySnapshot m = loop.metrics();
  const obs::HistogramSnapshot* latency =
      m.histogram(net::kMetricSessionLatency);
  const auto latency_ms = [latency](double q) {
    return latency == nullptr ? 0.0 : latency->quantile(q) * 1e3;
  };
  std::cerr << "served " << m.counter(net::kMetricSessionsCompleted)
            << " session(s) (" << m.counter(net::kMetricSessionsFailed)
            << " failed), " << m.counter(net::kMetricChipsTuned)
            << " chip(s), " << m.counter(net::kMetricStimuli)
            << " stimuli in "
            << core::Table::num(m.gauge(net::kMetricWallSeconds), 2)
            << " s ("
            << core::Table::num(m.gauge(net::kMetricSessionsPerSec), 1)
            << " sessions/s); latency p50/p90/p99 "
            << core::Table::num(latency_ms(0.50), 2) << "/"
            << core::Table::num(latency_ms(0.90), 2) << "/"
            << core::Table::num(latency_ms(0.99), 2) << " ms\n";
  return 0;
}

int cmd_balance(const Cli& cli) {
  const LogSink sink = make_structured_log(cli);

  std::vector<fleet::WorkerEndpoint> endpoints;
  if (const auto workers = cli.get("workers")) {
    for (const std::string& target : split_list(*workers)) {
      const auto [host, port] = split_host_port("workers", target);
      if (port == 0) {
        throw UsageError("--workers=" + target +
                         ": a worker needs a nonzero port");
      }
      endpoints.push_back(fleet::WorkerEndpoint{host, port});
    }
  }
  std::size_t spawn = 0;
  if (const auto s = cli.get("spawn")) spawn = parse_size("spawn", *s);
  if (endpoints.empty() && spawn == 0) {
    throw UsageError("balance needs --workers=host:port,... and/or --spawn=N");
  }
  // Circuit/flow options configure the spawned serve children; with only
  // external --workers they would be silently ignored — reject instead.
  static const char* kForwarded[] = {"circuit", "bench",     "buffers",
                                     "policy",  "td",        "quantile",
                                     "seed",    "threads"};
  if (spawn == 0) {
    for (const char* opt : kForwarded) {
      if (cli.get(opt)) {
        throw UsageError(std::string("balance: --") + opt +
                         " configures --spawn'd workers; external --workers "
                         "carry their own circuit");
      }
    }
  } else {
    // The children must be able to provision a circuit at all; fail here
    // rather than with N cryptic child exits.
    if (!cli.get("circuit") && !cli.get("bench")) {
      throw UsageError(
          "balance: --spawn needs --circuit=<name> or --bench=<file> for "
          "the workers");
    }
  }

  fleet::RegistryOptions ropts;
  if (const auto interval = cli.get("probe-interval")) {
    ropts.probe_interval_seconds = parse_double("probe-interval", *interval);
  }
  fleet::WorkerRegistry registry(ropts);
  for (const fleet::WorkerEndpoint& endpoint : endpoints) {
    (void)registry.add_worker(endpoint);
  }
  std::vector<std::size_t> spawn_slots;
  spawn_slots.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    // Port unknown until the child's banner; the slot starts unroutable.
    spawn_slots.push_back(
        registry.add_worker(fleet::WorkerEndpoint{"127.0.0.1", 0}));
  }

  std::unique_ptr<fleet::ProcessSupervisor> supervisor;
  if (spawn > 0) {
    fleet::SupervisorOptions sup;
    sup.children = spawn;
    sup.log = sink.log;
    sup.argv = {"/proc/self/exe", "serve", "--port=0"};
    for (const char* opt : kForwarded) {
      if (const auto value = cli.get(opt)) {
        sup.argv.push_back("--" + std::string(opt) + "=" + *value);
      }
    }
    supervisor = std::make_unique<fleet::ProcessSupervisor>(
        std::move(sup),
        [&registry, spawn_slots](std::size_t child,
                                 const fleet::WorkerEndpoint& endpoint) {
          registry.update_endpoint(spawn_slots[child], endpoint);
        });
  }

  fleet::BalancerOptions bopts;
  bopts.log = sink.log;
  parse_server_options(cli, bopts);
  if (const auto relay = cli.get("relay-workers")) {
    bopts.relay_workers = parse_size("relay-workers", *relay);
    if (bopts.relay_workers == 0) {
      throw UsageError("--relay-workers must be at least 1");
    }
  }
  if (const auto retries = cli.get("retries")) {
    bopts.max_session_retries = parse_size("retries", *retries);
  }

  // All registry slots exist by here (the FleetBalancer per-slot gauge
  // contract); endpoints still flow in from banners afterwards.
  fleet::FleetBalancer balancer(registry, bopts);
  if (supervisor != nullptr) supervisor->start();  // blocks until banners
  registry.start_probing();
  balancer.start();
  // Supervisor drain (kill/waitpid/join) happens below on the main thread,
  // after the balancer's wait() returns — never in the signal handler.
  run_until_drained(balancer, "balancing");
  registry.stop_probing();
  if (supervisor != nullptr) supervisor->drain();

  const obs::RegistrySnapshot m = balancer.metrics();
  std::cerr << "balanced " << m.counter(fleet::kFleetSessionsCompleted)
            << " session(s) (" << m.counter(fleet::kFleetSessionsFailed)
            << " failed, " << m.counter(fleet::kFleetSessionsRetried)
            << " retried) across " << registry.size() << " worker(s) in "
            << core::Table::num(m.gauge(fleet::kFleetWallSeconds), 2)
            << " s ("
            << core::Table::num(m.gauge(fleet::kFleetSessionsPerSec), 1)
            << " sessions/s)";
  if (supervisor != nullptr) {
    std::cerr << "; " << supervisor->restarts() << " worker restart(s)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_status(const Cli& cli) {
  const auto target = cli.get("connect");
  if (!target) throw UsageError("status needs --connect=host:port");
  const auto [host, port] = split_host_port("connect", *target);
  if (const auto format = cli.get("format")) {
    if (*format == "prometheus") {
      std::cout << net::fetch_prometheus(host, port);
      return 0;
    }
    if (*format != "json") {
      throw UsageError("--format=" + *format + ": expected json or prometheus");
    }
  }
  const std::string line = net::fetch_status(host, port);
  // The machine-readable line alone on stdout (pipe into python/jq); the
  // human summary goes to stderr like every other end-of-run summary.
  std::cout << line << '\n';
  try {
    io::json::Parser parser(line, "status");
    const io::json::Value doc = parser.parse();
    const auto number = [&doc](const char* section, const char* name) {
      const io::json::Value* s = doc.find(section);
      const io::json::Value* v = s == nullptr ? nullptr : s->find(name);
      return v == nullptr ? 0.0 : v->number;
    };
    const io::json::Value* hists = doc.find("histograms");
    const io::json::Value* latency =
        hists == nullptr ? nullptr : hists->find(net::kMetricSessionLatency);
    const auto latency_ms = [latency](const char* key) {
      const io::json::Value* v =
          latency == nullptr ? nullptr : latency->find(key);
      return v == nullptr ? 0.0 : v->number * 1e3;
    };
    std::cerr << core::Table::num(
                     number("counters", net::kMetricSessionsCompleted), 0)
              << " session(s) done, "
              << core::Table::num(
                     number("gauges", net::kMetricActiveSessions), 0)
              << " active ("
              << core::Table::num(
                     number("counters", net::kMetricSessionsFailed), 0)
              << " failed); "
              << core::Table::num(
                     number("gauges", net::kMetricSessionsPerSec), 1)
              << " sessions/s; latency p50/p99 "
              << core::Table::num(latency_ms("p50"), 2) << "/"
              << core::Table::num(latency_ms("p99"), 2) << " ms\n";
  } catch (const io::json::ParseError&) {
    // The raw line is already on stdout; the summary is best-effort.
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (cli.command.empty()) {
    usage(std::cerr);
    return 1;
  }
  if (const int rc = validate_cli(cli); rc != 0) return rc;
  try {
    if (cli.command == "help") return cmd_help(cli);
    if (cli.command == "generate") return cmd_generate(cli);
    if (cli.command == "info") return cmd_info(cli);
    if (cli.command == "ssta") return cmd_ssta(cli);
    if (cli.command == "run") return cmd_run(cli);
    if (cli.command == "campaign") return cmd_campaign(cli);
    if (cli.command == "circuits") return cmd_circuits(cli);
    if (cli.command == "tune") return cmd_tune(cli);
    if (cli.command == "serve") return cmd_serve(cli);
    if (cli.command == "balance") return cmd_balance(cli);
    if (cli.command == "status") return cmd_status(cli);
    return 2;  // unreachable: validate_cli rejected unknown commands
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const io::ScenarioError& e) {
    // A malformed scenario spec is a usage error, same as a bad option.
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const io::CheckpointError& e) {
    // Corrupt or mismatched checkpoints are bad inputs, not crashes.
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
