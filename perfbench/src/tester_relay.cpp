// tester_relay: the wire. kServeLoops in-process TuneServeLoop workers
// behind a FleetBalancer on s9234; `workers` closed-loop clients each run
// back-to-back kDiesPerSession-die sessions through
// net::run_loopback_client. Latency and throughput are measured on the
// client side with steady_clock around each session, never from the
// serve/fleet registries (their latency histogram is log2-bucketed and
// their sessions_per_sec gauge includes start and drain).
//
// Every session of one tier replays the same dies (0..3 of the service's
// seed base), and with Nagle's algorithm on the relay's sockets a
// session's latency moves in ~44 ms steps with that die transcript. A
// single tier per run would make the figures a function of the seed, so a
// run rotates through kEpochs tiers, each stood up from scratch with its
// own seed derived from --seed and driven for an equal share of the
// window.
//
// Per epoch:
//   1. Stand up service + serve loops + balancer; setup_s is the median
//      over the epochs of the time until the balancer accepts.
//   2. The expected transcript: the same dies driven in-process through
//      io::TuneServer::run_simulated (no socket).
//   3. The epoch's share of the window. Every session's report lines must
//      be byte-identical to the expected transcript, or it counts as
//      failed. A traced run gives each epoch an untraced and a traced half.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "parallel/deterministic_for.hpp"

namespace perfbench {
namespace {

using namespace effitest;

constexpr const char* kCircuit = "s9234";
constexpr std::size_t kEpochs = 10;
constexpr std::size_t kServeLoops = 2;
constexpr std::size_t kDiesPerSession = 4;
/// In-process replays and bare connects timed per epoch (traced runs).
constexpr std::size_t kProbesPerEpoch = 5;

/// Report lines sorted by chip id (the second token).
std::vector<std::string> by_chip(std::vector<std::string> lines) {
  const auto chip = [](const std::string& line) {
    std::istringstream is(line);
    std::string tag;
    std::size_t c = 0;
    is >> tag >> c;
    return c;
  };
  std::stable_sort(lines.begin(), lines.end(),
                   [&](const std::string& a, const std::string& b) {
                     return chip(a) < chip(b);
                   });
  return lines;
}

/// The report lines of kDiesPerSession dies driven in-process.
std::vector<std::string> replay(const core::TunerService& service) {
  io::TuneServer server(service, kDiesPerSession);
  std::ostringstream out;
  (void)server.run_simulated(out);
  std::vector<std::string> reports;
  std::istringstream is(out.str());
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("report ", 0) == 0) reports.push_back(line);
  }
  return by_chip(std::move(reports));
}

/// One stood-up relay tier: service, serve workers, registry, balancer.
/// Members are declared in dependency order, so destruction tears the
/// balancer down before the workers and the workers before the service.
struct Relay {
  Provisioned provisioned;
  std::vector<std::unique_ptr<net::TuneServeLoop>> loops;
  std::unique_ptr<fleet::WorkerRegistry> registry;
  std::unique_ptr<fleet::FleetBalancer> balancer;

  Relay() = default;
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;
  ~Relay() {
    if (balancer) {
      balancer->request_drain();
      balancer->wait();
    }
    for (auto& loop : loops) {
      loop->request_drain();
      loop->wait();
    }
  }
};

std::unique_ptr<Relay> stand_up(const core::FlowOptions& options,
                                std::size_t workers, SpanRecorder& spans,
                                std::uint64_t op, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  auto relay = std::make_unique<Relay>();
  relay->provisioned = provision(kCircuit, options, spans, op);
  net::ServeOptions sopts;
  sopts.workers = workers;
  sopts.io_timeout_seconds = 60.0;
  for (std::size_t k = 0; k < kServeLoops; ++k) {
    relay->loops.push_back(std::make_unique<net::TuneServeLoop>(
        *relay->provisioned.service, sopts));
    relay->loops.back()->start();
  }
  relay->registry = std::make_unique<fleet::WorkerRegistry>();
  for (const auto& loop : relay->loops) {
    (void)relay->registry->add_worker({loop->host(), loop->port()});
  }
  fleet::BalancerOptions bopts;
  bopts.relay_workers = workers;
  bopts.io_timeout_seconds = 60.0;
  bopts.status_port = 0;
  relay->balancer =
      std::make_unique<fleet::FleetBalancer>(*relay->registry, bopts);
  relay->balancer->start();
  seconds = seconds_between(t0, Clock::now());
  return relay;
}

struct WorkerOut {
  explicit WorkerOut(SpanRecorder recorder) : spans(std::move(recorder)) {}
  std::vector<double> latency_ms;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t stimuli = 0;
  SpanRecorder spans;
  Clock::time_point first_begin = Clock::time_point::max();
  Clock::time_point last_end{};
};

/// Sessions of all epochs, untraced or traced.
struct Window {
  std::vector<double> latency_ms;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t stimuli = 0;
  double wall_s = 0.0;  ///< summed over epochs: first connect -> last report
  SpanRecorder spans{true, Clock::now(), 0};
};

void drive(const Relay& relay, const std::vector<std::string>& expected,
           std::size_t clients, double seconds, bool traced,
           Clock::time_point epoch, std::uint64_t first_op, Window& win) {
  const core::Problem& problem = relay.provisioned.circuit->problem;
  const std::uint16_t port = relay.balancer->port();
  std::vector<WorkerOut> outs;
  for (std::size_t w = 0; w < clients; ++w) {
    outs.emplace_back(SpanRecorder(traced, epoch, first_op + 4 * clients));
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::atomic<std::uint64_t> next{first_op};
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < clients; ++w) {
      threads.emplace_back([&, w] {
        WorkerOut& out = outs[w];
        net::ClientOptions copts;
        copts.chips = kDiesPerSession;
        while (Clock::now() < deadline) {
          const std::uint64_t op = next.fetch_add(1);
          const Clock::time_point t0 = Clock::now();
          out.first_begin = std::min(out.first_begin, t0);
          bool ok = false;
          try {
            const net::ClientResult r =
                net::run_loopback_client("127.0.0.1", port, problem, copts);
            out.stimuli += r.stimuli_answered;
            ok = r.error_lines.empty() && by_chip(r.report_lines) == expected;
          } catch (const std::exception& e) {
            std::cerr << "perfbench: session " << op << ": " << e.what()
                      << "\n";
          }
          out.last_end = Clock::now();
          ++out.sessions;
          if (!ok) ++out.failed;
          out.latency_ms.push_back(seconds_between(t0, out.last_end) * 1e3);
          out.spans.add(Layer::kSession, Layer::kSession, op, t0,
                        out.last_end);
        }
      });
    }
  }
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last{};
  for (WorkerOut& o : outs) {
    win.latency_ms.insert(win.latency_ms.end(), o.latency_ms.begin(),
                          o.latency_ms.end());
    win.sessions += o.sessions;
    win.failed += o.failed;
    win.stimuli += o.stimuli;
    win.spans.merge(o.spans);
    first = std::min(first, o.first_begin);
    last = std::max(last, o.last_end);
  }
  if (last > first) win.wall_s += seconds_between(first, last);
}

/// Serve workers' per-session latency histogram sum (s) and count, and
/// their failed-session counter.
struct WorkerTotals {
  double sum_s = 0.0;
  std::uint64_t count = 0;
  std::uint64_t failed = 0;
};

WorkerTotals worker_totals(const Relay& relay) {
  WorkerTotals t;
  for (const auto& loop : relay.loops) {
    const obs::RegistrySnapshot m = loop->metrics();
    t.failed += m.counter(net::kMetricSessionsFailed);
    if (const obs::HistogramSnapshot* h =
            m.histogram(net::kMetricSessionLatency)) {
      t.sum_s += h->sum;
      t.count += h->count;
    }
  }
  return t;
}

}  // namespace

Result run_tester_relay(const Args& args) {
  Result result;
  const Clock::time_point epoch = Clock::now();
  core::FlowOptions options;
  options.threads = 1;  // the serve loops provide the parallelism

  const double share = args.seconds / static_cast<double>(kEpochs);
  const double untraced_s = args.trace ? share / 2 : share;
  SpanRecorder setup_spans(args.trace, epoch, kEpochs);
  std::vector<SetupTimes> reps;
  std::vector<double> ready_s;
  Window timed;
  Window traced;
  WorkerTotals traced_workers;
  std::uint64_t retried = 0;
  std::vector<double> compute_ms;
  std::vector<double> connect_ms;
  PreparePieces pieces;

  for (std::size_t e = 0; e < kEpochs; ++e) {
    options.seed = parallel::index_seed(args.seed, e);
    double ready = 0.0;
    const std::unique_ptr<Relay> relay =
        stand_up(options, args.workers, setup_spans, e, ready);
    reps.push_back(relay->provisioned.times);
    ready_s.push_back(ready);
    const core::TunerService& service = *relay->provisioned.service;

    const std::vector<std::string> expected = replay(service);
    if (expected.size() != kDiesPerSession) {
      result.fail(1, "in-process replay produced no reports");
    }
    drive(*relay, expected, args.workers, untraced_s, false, epoch, 0, timed);
    if (!args.trace) continue;

    const WorkerTotals before = worker_totals(*relay);
    drive(*relay, expected, args.workers, share - untraced_s, true, epoch,
          traced.sessions, traced);
    const WorkerTotals after = worker_totals(*relay);
    traced_workers.sum_s += after.sum_s - before.sum_s;
    traced_workers.count += after.count - before.count;
    traced_workers.failed += after.failed;
    retried +=
        relay->balancer->metrics().counter(fleet::kFleetSessionsRetried);

    for (std::size_t i = 0; i < kProbesPerEpoch; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (replay(service) != expected) {
        result.fail(1, "in-process replay is not deterministic");
      }
      compute_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    for (std::size_t i = 0; i < kProbesPerEpoch; ++i) {
      const Clock::time_point t0 = Clock::now();
      const net::Socket s =
          net::connect_to("127.0.0.1", relay->balancer->status_port());
      connect_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    if (e + 1 == kEpochs) {
      pieces = time_prepare_pieces(relay->provisioned, options);
    }
  }

  result.attempted += timed.sessions + traced.sessions;
  if (timed.failed + traced.failed != 0) {
    result.fail(timed.failed + traced.failed,
                "relayed sessions differ from the replay");
  }

  EndToEnd e2e;
  e2e.setup_s = quantile(ready_s, 0.5);
  e2e.throughput_per_s = static_cast<double>(timed.sessions) / timed.wall_s;
  e2e.latency_p50_ms = quantile(timed.latency_ms, 0.50);
  e2e.latency_p90_ms = quantile(timed.latency_ms, 0.90);
  result.summary = {
      {"sessions_per_s", e2e.throughput_per_s, "1/s"},
      {"session_p50_ms", e2e.latency_p50_ms, "ms"},
      {"session_p90_ms", e2e.latency_p90_ms, "ms"},
      {"session_p99_ms", quantile(timed.latency_ms, 0.99), "ms"},
      {"sessions_timed", static_cast<double>(timed.sessions), "count"},
  };

  if (args.trace) {
    add_setup_layers(result, reps);
    add_prepare_pieces(result, pieces);
    const double worker_ms =
        traced_workers.count > 0
            ? traced_workers.sum_s / double(traced_workers.count) * 1e3
            : 0.0;
    const double sessions = static_cast<double>(traced.sessions);
    auto& pl = result.per_layer;
    pl.push_back({"core.session_compute_ms", quantile(compute_ms, 0.5), "ms"});
    pl.push_back({"net.worker_session_ms", worker_ms, "ms"});
    pl.push_back(
        {"fleet.relay_ms", mean(traced.latency_ms) - worker_ms, "ms"});
    pl.push_back({"net.connect_ms", quantile(connect_ms, 0.5), "ms"});
    pl.push_back({"net.stimuli_per_session",
                  static_cast<double>(traced.stimuli) / sessions, "count"});
    pl.push_back(
        {"fleet.sessions_retried", static_cast<double>(retried), "count"});
    pl.push_back({"net.sessions_failed",
                  static_cast<double>(traced_workers.failed), "count"});
    const double traced_tput = sessions / traced.wall_s;
    pl.push_back({"trace.overhead_pct",
                  (e2e.throughput_per_s / traced_tput - 1.0) * 100.0, "%"});

    setup_spans.merge(traced.spans);
    setup_spans.write(args.trace_file, args.workload);
  }
  add_end_to_end(result, e2e);
  return result;
}

}  // namespace perfbench
