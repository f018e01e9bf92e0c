// Integration suite for the fleet front balancer (fleet/balancer.hpp):
// sessions relayed through the balancer must reproduce `tune --simulate`
// reports byte-for-byte — including a session whose worker dies mid-flight
// and is replayed on a survivor, and a session whose worker process is
// SIGKILL'd outright. Plus the failure edges (fleet exhaustion, seed
// mismatch, deterministic worker rejections), a drain that must finish
// the session in flight, and the fleet status endpoints. Runs under the
// ThreadSanitizer CI label (`fleet`): the relay is two threads per
// session against a shared registry.
//
// Everything binds 127.0.0.1 port 0 (kernel-chosen), so parallel ctest
// invocations never collide.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "fleet_test_common.hpp"
#include "io/json.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/rng.hpp"
#include "timing/model.hpp"

namespace {

using namespace effitest;
using fleet_test::holder;
using fleet_test::simulated_report_lines;
using fleet_test::sorted_by_chip;

fleet::BalancerOptions fast_options() {
  fleet::BalancerOptions o;
  o.relay_workers = 4;
  o.attach_backoff_seconds = 0.01;  // tests never wait on a supervisor
  return o;
}

TEST(FleetBalancer, RelayedSessionsMatchSimulatedReports) {
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop worker_a(holder().service, soptions);
  net::TuneServeLoop worker_b(holder().service, soptions);
  worker_a.start();
  worker_b.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker_a.host(), worker_a.port()});
  (void)registry.add_worker({worker_b.host(), worker_b.port()});
  fleet::FleetBalancer balancer(registry, fast_options());
  balancer.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kChips = 3;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  ASSERT_EQ(golden.size(), kChips);

  std::vector<std::optional<net::ClientResult>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        net::ClientOptions copts;
        copts.chips = kChips;
        results[i] = net::run_loopback_client("127.0.0.1", balancer.port(),
                                              holder().problem, copts);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  balancer.request_drain();
  balancer.wait();
  worker_a.request_drain();
  worker_b.request_drain();
  worker_a.wait();
  worker_b.wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "client " << i << " threw";
    EXPECT_EQ(sorted_by_chip(results[i]->report_lines), golden)
        << "client " << i;
    EXPECT_TRUE(results[i]->error_lines.empty());
  }
  // Both workers actually served: least-loaded routing spreads concurrent
  // sessions instead of piling onto slot 0.
  EXPECT_EQ(worker_a.metrics().counter(net::kMetricSessionsCompleted) +
                worker_b.metrics().counter(net::kMetricSessionsCompleted),
            kClients);
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRouted), kClients);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), kClients);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
  EXPECT_EQ(m.gauge(fleet::kFleetActiveSessions), 0.0);
  EXPECT_EQ(m.gauge(fleet::kFleetWorkersLive), 2.0);
  EXPECT_GT(m.gauge(fleet::kFleetSessionsPerSec), 0.0);
}

TEST(FleetBalancer, SessionMigratesWhenItsWorkerDiesMidFlight) {
  // Slot 0 is a proxy that relays the first few REAL server lines from a
  // genuine worker, then hard-closes — a deterministic mid-session death
  // with genuine bytes already forwarded. Slot 1 is the survivor. The
  // migrated session must replay its backlog, discard exactly the prefix
  // the client already holds, and still match the golden transcript.
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop survivor(holder().service, soptions);
  survivor.start();

  net::Listener dying("127.0.0.1", 0, 8);
  std::thread proxy([&] {
    net::Socket conn = dying.accept();
    if (!conn.valid()) return;
    net::SocketStream client_side(std::move(conn));
    std::string hello;
    if (!std::getline(client_side, hello)) return;
    net::SocketStream backend(
        net::connect_to(survivor.host(), survivor.port()));
    backend << hello << '\n';
    backend.flush();
    // Greeting + header + two stimulus lines, then death mid-session.
    std::string line;
    for (int i = 0; i < 4 && std::getline(backend, line); ++i) {
      client_side << line << '\n';
      client_side.flush();
    }
  });

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({dying.host(), dying.port()});
  (void)registry.add_worker({survivor.host(), survivor.port()});
  fleet::FleetBalancer balancer(registry, fast_options());
  balancer.start();

  constexpr std::size_t kChips = 2;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  net::ClientOptions copts;
  copts.chips = kChips;
  const net::ClientResult result = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  proxy.join();

  balancer.request_drain();
  balancer.wait();
  survivor.request_drain();
  survivor.wait();

  EXPECT_EQ(sorted_by_chip(result.report_lines), golden);
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  // The relay's fast path marked the dead proxy's slot, no prober needed.
  EXPECT_EQ(registry.health(0), fleet::WorkerHealth::kDead);
}

TEST(FleetBalancer, ExhaustedRetriesSurfaceAsAFleetError) {
  // One slot, pointing at a port with nothing behind it: every attach
  // fails, the bounded retries run out, and the client gets one clear
  // fatal error line instead of a hang or a bare disconnect.
  std::uint16_t dead_port = 0;
  {
    net::Listener gone("127.0.0.1", 0, 1);
    dead_port = gone.port();
  }
  fleet::WorkerRegistry registry;
  (void)registry.add_worker({"127.0.0.1", dead_port});
  fleet::BalancerOptions options = fast_options();
  options.max_session_retries = 1;
  fleet::FleetBalancer balancer(registry, options);
  balancer.start();

  std::string reply;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=1\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, reply));
  }
  balancer.request_drain();
  balancer.wait();

  EXPECT_EQ(reply.rfind("error - fleet exhausted", 0), 0u) << reply;
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 0u);
}

TEST(FleetBalancer, SeedMismatchAbortsInsteadOfDivergingBytes) {
  // The first worker greets with a bogus seed base and dies; the real
  // replacement answers with the true base. Replaying would hand the
  // client divergent bytes, so the balancer must abort the session with a
  // fatal error instead.
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop real(holder().service, soptions);
  real.start();

  const std::uint64_t bogus_seed =
      holder().service.monte_carlo_seed_base() + 1;
  net::Listener liar("127.0.0.1", 0, 8);
  std::thread fake([&] {
    net::Socket conn = liar.accept();
    if (!conn.valid()) return;
    net::SocketStream stream(std::move(conn));
    std::string hello;
    if (!std::getline(stream, hello)) return;
    stream << "serve effitest-tune-v1 session=0 seed=" << bogus_seed << '\n';
    stream.flush();
  });  // stream closes: mid-session death right after the greeting

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({liar.host(), liar.port()});
  (void)registry.add_worker({real.host(), real.port()});
  fleet::FleetBalancer balancer(registry, fast_options());
  balancer.start();

  std::string greeting, error_line;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=1\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, greeting));
    ASSERT_TRUE(std::getline(stream, error_line));
  }
  fake.join();
  balancer.request_drain();
  balancer.wait();
  real.request_drain();
  real.wait();

  EXPECT_EQ(greeting.rfind("serve effitest-tune-v1 ", 0), 0u) << greeting;
  EXPECT_EQ(error_line.rfind("error - fleet worker seed mismatch", 0), 0u)
      << error_line;
  EXPECT_EQ(balancer.metrics().counter(fleet::kFleetSessionsFailed), 1u);
}

TEST(FleetBalancer, WorkerRejectionIsForwardedAndNeverRetried) {
  // A deterministic worker-side rejection (`error - ...` greeting) would
  // recur on every worker — forwarding it once is correct, retrying is a
  // waste that hides the real problem.
  net::ServeOptions soptions;
  soptions.workers = 1;
  soptions.max_chips_per_session = 2;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::FleetBalancer balancer(registry, fast_options());
  balancer.start();

  std::string reply;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=3\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, reply));
  }
  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  EXPECT_EQ(reply.rfind("error - ", 0), 0u) << reply;
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
}

TEST(FleetBalancer, DrainFinishesInFlightSessions) {
  // The shared SessionServer drain, through the relay handler: the
  // session is provably in flight (greeting relayed) before the drain
  // lands, and only answered after. It must finish with the golden
  // reports while the balancer's listener is already gone.
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::FleetBalancer balancer(registry, fast_options());
  balancer.start();

  constexpr std::size_t kChips = 2;
  const std::vector<std::string> golden = simulated_report_lines(kChips);

  net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
  stream << "hello effitest-tune-v1 chips=" << kChips << '\n';
  stream.flush();
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  ASSERT_EQ(line.rfind("serve ", 0), 0u) << line;
  const std::uint64_t seed = std::stoull(line.substr(line.rfind("seed=") + 5));

  balancer.request_drain();  // listener closes NOW; this session must survive

  timing::SampleWorkspace ws;
  std::vector<timing::Chip> dies;
  std::vector<core::SimulatedChip> testers;
  for (std::size_t c = 0; c < kChips; ++c) {
    stats::Rng rng(parallel::index_seed(seed, c));
    dies.push_back(holder().model.sample_chip(rng, ws));
  }
  for (std::size_t c = 0; c < kChips; ++c) {
    testers.emplace_back(holder().problem, dies[c]);
  }
  std::vector<std::string> reports;
  while (std::getline(stream, line)) {
    if (line == "bye") break;
    if (line.rfind("report ", 0) == 0) {
      reports.push_back(line);
      continue;
    }
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag != "stimulus" && tag != "final") continue;
    std::size_t chip = 0, seq = 0;
    std::string marker;
    core::Stimulus stim;
    ASSERT_TRUE(is >> chip >> seq >> stim.period >> marker);
    std::string token;
    bool in_arm = false;
    while (is >> token) {
      if (token == "arm") {
        in_arm = true;
      } else if (in_arm) {
        stim.armed.push_back(std::stoul(token));
      } else {
        stim.steps.push_back(std::stoi(token));
      }
    }
    std::vector<bool> pass;
    if (tag == "final") {
      pass.assign(1, testers[chip].final_test(stim.period, stim.steps));
    } else {
      pass = testers[chip].apply(stim);
    }
    std::string bits(pass.size(), '0');
    for (std::size_t i = 0; i < pass.size(); ++i) {
      if (pass[i]) bits[i] = '1';
    }
    stream << "response " << chip << ' ' << seq << ' ' << bits << '\n';
  }
  balancer.wait();
  worker.request_drain();
  worker.wait();

  EXPECT_EQ(line, "bye");
  EXPECT_EQ(sorted_by_chip(reports), golden);
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  EXPECT_EQ(m.gauge(fleet::kFleetActiveSessions), 0.0);

  // And the balancer's listener really is gone: a late connection is
  // refused (or reset), never queued.
  EXPECT_THROW((void)net::connect_to("127.0.0.1", balancer.port()),
               std::runtime_error);
}

io::json::Value parse_status(const std::string& line) {
  io::json::Parser parser(line, "status");
  return parser.parse();
}

double status_number(const io::json::Value& doc, const char* section,
                     const std::string& name) {
  const io::json::Value* s = doc.find(section);
  const io::json::Value* v = s == nullptr ? nullptr : s->find(name);
  return v == nullptr ? -1.0 : v->number;
}

TEST(FleetBalancer, StatusEndpointsServeJsonAndPrometheus) {
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::BalancerOptions options = fast_options();
  options.status_port = 0;
  fleet::FleetBalancer balancer(registry, options);
  balancer.start();
  ASSERT_NE(balancer.status_port(), 0);

  // One relayed session, so the counters have something to show.
  net::ClientOptions copts;
  copts.chips = 1;
  const net::ClientResult result = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(result.report_lines), simulated_report_lines(1));
  // The client's `bye` races the relay's completion bookkeeping by a few
  // instructions; wait for it to land before polling.
  while (balancer.metrics().counter(fleet::kFleetSessionsCompleted) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Dedicated endpoint: fleet-level schema-v1 JSON.
  const io::json::Value doc = parse_status(
      net::fetch_status("127.0.0.1", balancer.status_port()));
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->string, "effitest-status-v1");
  EXPECT_EQ(
      status_number(doc, "counters", fleet::kFleetSessionsCompleted), 1.0);
  EXPECT_EQ(status_number(doc, "gauges", fleet::kFleetWorkersLive), 1.0);
  // Per-worker gauges are registered per registry slot.
  EXPECT_EQ(status_number(doc, "gauges", "fleet.worker0.live_sessions"), 0.0);

  // In-band `status` on the relay port answers without touching session
  // counters; `status prometheus` renders the same registry as exposition
  // text.
  const io::json::Value inband =
      parse_status(net::fetch_status("127.0.0.1", balancer.port()));
  EXPECT_EQ(
      status_number(inband, "counters", fleet::kFleetSessionsRouted), 1.0);
  const std::string prom =
      net::fetch_prometheus("127.0.0.1", balancer.port());
  EXPECT_NE(prom.find("# TYPE effitest_fleet_sessions_routed counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("effitest_fleet_sessions_routed 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE effitest_fleet_workers_live gauge"),
            std::string::npos);

  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  // Status polls were counted (3: two JSON, one prometheus), sessions not
  // perturbed.
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetStatusRequests), 3u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRouted), 1u);
}

#ifdef EFFITEST_FLEET_WORKER
TEST(FleetBalancer, SigkilledWorkerProcessSessionsAreRetried) {
  // The full stack, real processes: a supervisor spawns two helper worker
  // binaries, one session completes, worker 0 is SIGKILL'd, and the next
  // session must ride the retry onto worker 1 with byte-identical reports.
  // restart_on_crash is off so the kill is permanent and the routing
  // decision deterministic.
  fleet::WorkerRegistry registry;
  std::vector<std::size_t> slots;
  slots.push_back(registry.add_worker({"127.0.0.1", 0}));
  slots.push_back(registry.add_worker({"127.0.0.1", 0}));

  fleet::SupervisorOptions soptions;
  soptions.argv = {EFFITEST_FLEET_WORKER};
  soptions.children = 2;
  soptions.restart_on_crash = false;
  soptions.startup_timeout_seconds = 120.0;  // TSan-built helpers are slow
  fleet::ProcessSupervisor supervisor(
      soptions, [&registry, &slots](std::size_t child,
                                    const fleet::WorkerEndpoint& endpoint) {
        registry.update_endpoint(slots[child], endpoint);
      });

  fleet::FleetBalancer balancer(registry, fast_options());
  supervisor.start();
  balancer.start();

  constexpr std::size_t kChips = 2;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  net::ClientOptions copts;
  copts.chips = kChips;

  const net::ClientResult before = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(before.report_lines), golden);

  const pid_t victim = supervisor.pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The registry still believes slot 0 is live (no prober running): the
  // next session's first attach hits ECONNREFUSED, reports the failure,
  // and retries onto worker 1 — byte-identical.
  const net::ClientResult after = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(after.report_lines), golden);

  balancer.request_drain();
  balancer.wait();
  supervisor.drain();
  EXPECT_EQ(supervisor.restarts(), 0u);

  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 2u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  EXPECT_GE(m.counter(fleet::kFleetSessionsRetried), 1u);
  EXPECT_EQ(registry.health(slots[0]), fleet::WorkerHealth::kDead);
}
#endif  // EFFITEST_FLEET_WORKER

}  // namespace
