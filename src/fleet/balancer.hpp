#pragma once
// Front balancer for the multi-process tuning fleet (`effitest_cli
// balance`): one listening port, many `serve` worker processes. Testers
// speak plain effitest-tune-v1 to the balancer; each session is routed to
// the least-loaded live worker (fleet/registry.hpp) and relayed byte for
// byte in both directions. DESIGN.md §15.
//
// Session retry / migration: the relay records the client's hello and
// every client line after it, and counts the server lines already
// forwarded (the greeting aside). When the worker connection dies before
// the session's `bye` — SIGKILL'd worker, crashed process, yanked cable —
// the slot is report_failure()'d and the session re-attached to a
// surviving worker: same hello, greeting checked for the SAME seed base
// (never re-forwarded), the recorded client lines replayed, and the first
// K server lines read and discarded. Because the serve exchange is a pure
// deterministic function of the client's line order under a fixed seed
// base (die c is Rng(index_seed(seed, c)); the Exchange is
// single-threaded), the discarded prefix is byte-identical to what the
// client already holds, and the relay resumes at exactly the next unseen
// byte — the client observes one uninterrupted session. Retries are
// bounded by max_session_retries; exhaustion (or no acquirable worker)
// sends the client a final `error - fleet exhausted ...` line.
//
// A worker-sent fatal rejection (`error - <reason>`) is forwarded and
// never retried: it would recur deterministically on any worker.
//
// Relay concurrency: two threads per session — downlink (the session's
// pool worker: worker socket -> client) and one uplink (client -> worker).
// They never share a SocketStream (SocketStreambuf is not thread-safe);
// each reads with its own raw-fd line reader and writes with send(2), and
// recv/send on one fd from two threads is safe. The uplink appends to the
// replay backlog and forwards under the session mutex, so a migration's
// replay is ordered against live client lines. Half-closes unblock the
// peer thread without racing fd lifetimes: a vanished client makes the
// uplink shut down the worker fd's write side (raw ::shutdown(SHUT_WR) on
// the fd it read under the session mutex) so the worker sees EOF; a
// finished downlink shuts down the client read side (net::shutdown_read)
// to pop the uplink out of recv before joining it.
//
// Accept/drain shape is net::SessionServer's (net/session_server.hpp),
// the same server TuneServeLoop owns: accept thread + self-pipe,
// accept-pausing backpressure at max_pending, in-band first-line `status`
// (JSON) / `status prometheus` (text exposition format) answered without
// touching session counters, optional dedicated status listener, and an
// async-signal-safe request_drain() that stops accepting and lets every
// in-flight session finish — including finishing any migration it is in
// the middle of. The balancer supplies the relay handler.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fleet/registry.hpp"
#include "net/session_server.hpp"
#include "obs/metrics.hpp"

namespace effitest::fleet {

/// The listener, backpressure and drain fields are net::ServerOptions'.
struct BalancerOptions : net::ServerOptions {
  /// Concurrent relay sessions (each also spawns one uplink thread).
  std::size_t relay_workers = 8;
  /// Re-attach attempts after a session's first worker dies; attempt
  /// 1 + max_session_retries failing (or no acquirable worker) is fleet
  /// exhaustion.
  std::size_t max_session_retries = 2;
  /// Pause before each re-attach, so a just-killed worker's supervisor
  /// restart and the registry's probe re-admission get a beat to land.
  double attach_backoff_seconds = 0.05;
};

// Fleet-level metric names (the balancer's own obs::MetricsRegistry —
// disjoint from the serve.* names so a dashboard scraping both tiers
// never collides). Per-worker gauges fleet.worker<slot>.live_sessions
// (balancer-side in-flight) and fleet.worker<slot>.queue_depth (the
// worker's last self-reported serve.queue_depth) are registered for every
// registry slot at construction.
inline constexpr const char* kFleetSessionsRouted = "fleet.sessions_routed";
inline constexpr const char* kFleetSessionsCompleted =
    "fleet.sessions_completed";
inline constexpr const char* kFleetSessionsFailed = "fleet.sessions_failed";
inline constexpr const char* kFleetSessionsRetried = "fleet.sessions_retried";
inline constexpr const char* kFleetStatusRequests = "fleet.status_requests";
inline constexpr const char* kFleetActiveSessions = "fleet.active_sessions";
inline constexpr const char* kFleetQueueDepth = "fleet.queue_depth";
inline constexpr const char* kFleetWorkersLive = "fleet.workers_live";
inline constexpr const char* kFleetWorkersDegraded = "fleet.workers_degraded";
inline constexpr const char* kFleetWorkersDead = "fleet.workers_dead";
inline constexpr const char* kFleetWallSeconds = "fleet.wall_seconds";
inline constexpr const char* kFleetSessionsPerSec = "fleet.sessions_per_sec";

/// The balance front end: a net::SessionServer whose connection handler
/// relays the session to a worker. request_drain() also lets a migration
/// in progress finish.
class FleetBalancer : public net::SessionServer {
 public:
  /// The registry must outlive the balancer and have every slot added
  /// before construction (per-slot gauges are bound here, under the
  /// Gauge::bind before-threads contract); endpoints may still be unknown
  /// and slots keep being re-pointed by a supervisor afterwards.
  FleetBalancer(WorkerRegistry& registry, BalancerOptions options);
  ~FleetBalancer() override;

 private:
  /// The relay: attach, forward both ways, migrate on worker death.
  void handle_connection(net::Socket client) override;

  WorkerRegistry* registry_;
  BalancerOptions options_;
  obs::Counter* retried_;  ///< cached from the server's registry
};

}  // namespace effitest::fleet
