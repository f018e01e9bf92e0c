#pragma once
// Worker registry for the multi-process tuning fleet (fleet/balancer.hpp):
// the balancer's authoritative view of which `serve` workers exist, where
// they listen, how healthy they are, and how many fleet sessions are in
// flight on each. DESIGN.md §15.
//
// Health protocol: a background prober polls every worker's
// `effitest-status-v1` endpoint (the in-band `status` request PR 9 added
// to the serve port — no extra listener needed on the worker) on a fixed
// interval. Consecutive probe failures walk the slot down a three-state
// machine:
//
//   kLive --(failures >= degraded_after)--> kDegraded
//         --(failures >= dead_after)-----> kDead
//   any state --(one successful probe)---> kLive   (re-admission)
//
// Routing (acquire/release) prefers live workers, falls back to degraded
// ones when nothing is live, and never routes to a dead worker. Among
// equals the least-loaded slot wins, ties broken by the lowest index —
// deterministic, which the fleet tests rely on to know which worker a
// session lands on. Load is the registry's own in-flight count (sessions
// the balancer routed and has not released), not the worker's self-reported
// gauge: the local count moves synchronously with routing decisions, the
// probed gauge lags by up to one probe interval.
//
// report_failure() is the fast path around the prober: a relay that
// watched its worker connection die mid-session marks the slot dead
// immediately, so the very next acquire() avoids it instead of feeding it
// sessions for another probe interval. The prober re-admits the worker
// the moment it answers again (e.g. after a supervisor restart).
//
// Thread-safety: one mutex guards all slot state; every member is safe to
// call from the balancer's relay threads, the prober thread and a
// supervisor's monitor thread concurrently. The injectable Prober runs
// OUTSIDE the lock (it does network I/O), so a slow worker never blocks
// routing.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace effitest::fleet {

enum class WorkerHealth { kLive, kDegraded, kDead };

[[nodiscard]] const char* health_name(WorkerHealth health);

struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: not yet known (spawned child pre-banner)

  [[nodiscard]] bool known() const { return port != 0; }
  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// What one health probe learned. `ok` false means the worker did not
/// answer (connect failure, timeout, empty or malformed status line).
/// The gauges are the worker's self-reported serve.queue_depth and
/// serve.active_sessions, surfaced as the per-worker fleet gauges.
struct ProbeResult {
  bool ok = false;
  double queue_depth = 0.0;
  double active_sessions = 0.0;
};

/// Parse one `effitest-status-v1` JSON line into a ProbeResult (ok=false
/// on anything malformed — never throws). Exposed for the fleet fuzz
/// target: a hostile worker must not be able to crash the prober.
[[nodiscard]] ProbeResult parse_worker_status(const std::string& line);

struct RegistryOptions {
  double probe_interval_seconds = 0.5;
  /// Consecutive probe failures before a live worker is marked degraded /
  /// dead. degraded_after <= dead_after.
  std::size_t degraded_after = 1;
  std::size_t dead_after = 3;
  /// Socket timeout for the default prober's status request, so one hung
  /// worker cannot stall the probe round past the interval for long.
  double probe_timeout_seconds = 2.0;
};

class WorkerRegistry {
 public:
  using Prober = std::function<ProbeResult(const WorkerEndpoint&)>;

  explicit WorkerRegistry(RegistryOptions options = {});
  ~WorkerRegistry();

  WorkerRegistry(const WorkerRegistry&) = delete;
  WorkerRegistry& operator=(const WorkerRegistry&) = delete;

  /// Register a worker; returns its slot index. Slots are append-only —
  /// a supervisor restart reuses its slot via update_endpoint(). A worker
  /// whose endpoint is not yet known (port 0) starts dead and unroutable.
  std::size_t add_worker(WorkerEndpoint endpoint);

  /// Point a slot at a new endpoint (a restarted child on a fresh
  /// ephemeral port) and re-admit it as live with a clean failure count.
  void update_endpoint(std::size_t slot, WorkerEndpoint endpoint);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] WorkerEndpoint endpoint(std::size_t slot) const;
  [[nodiscard]] WorkerHealth health(std::size_t slot) const;
  [[nodiscard]] std::size_t count(WorkerHealth health) const;

  /// Replace the default prober (net::fetch_status with the configured
  /// timeout). Must be set before start_probing(); the health-state-
  /// machine unit tests inject deterministic probers here.
  void set_prober(Prober prober);

  /// One synchronous probe round over all slots (the prober thread's body,
  /// exposed so tests can step the state machine without wall-clock).
  void probe_all();

  /// Spawn the background prober thread (probe_all every
  /// probe_interval_seconds). stop_probing() joins it; idempotent both
  /// ways.
  void start_probing();
  void stop_probing();

  /// Route one session: the least-loaded live slot (degraded slots only
  /// when nothing is live; ties to the lowest index), with its in-flight
  /// count already incremented. nullopt when every worker is dead or
  /// unknown. Pair with release(slot).
  [[nodiscard]] std::optional<std::size_t> acquire();
  void release(std::size_t slot);

  /// Fast-path demotion: the caller watched this worker's TCP connection
  /// die. The slot is dead until a probe (or update_endpoint) re-admits
  /// it.
  void report_failure(std::size_t slot);

  /// Balancer-side in-flight sessions on a slot (the routing load).
  [[nodiscard]] std::size_t in_flight(std::size_t slot) const;
  /// The worker's self-reported gauges from the last successful probe.
  [[nodiscard]] double probed_queue_depth(std::size_t slot) const;
  [[nodiscard]] double probed_active_sessions(std::size_t slot) const;

 private:
  struct Slot {
    WorkerEndpoint endpoint;
    WorkerHealth health = WorkerHealth::kDead;
    std::size_t consecutive_failures = 0;
    std::size_t in_flight = 0;
    double probed_queue_depth = 0.0;
    double probed_active_sessions = 0.0;
  };

  void apply_probe(std::size_t slot, const ProbeResult& result);
  void prober_loop();

  RegistryOptions options_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  Prober prober_;
  std::thread prober_thread_;
  // Notified so stop_probing() interrupts a sleeping prober immediately
  // instead of waiting out the interval.
  std::condition_variable stop_cv_;
  bool probing_ = false;  ///< guarded by mutex_
};

}  // namespace effitest::fleet
