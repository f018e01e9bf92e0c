#pragma once
// The one TCP session server behind both network front ends: `serve`
// (net::TuneServeLoop, tunes locally) and `balance` (fleet::FleetBalancer,
// relays to a worker). DESIGN.md §13. Each front end derives from it and
// supplies handle_connection(); everything around that lives here.
//
// Concurrency shape: an accept thread hands connections to a
// net::LoadBalancer of `workers` session threads (worker-priority deques +
// stealing, load_balancer.hpp), each of which runs handle_connection()
// on one connection at a time. Backpressure is accept-pausing: when the
// un-claimed backlog reaches `max_pending` the accept loop stops calling
// accept() and pending connections wait in the kernel listen backlog —
// nobody is busy-rejected.
//
// Status: the handler asks answer_status() about a connection's first
// line; `status` (one `effitest-status-v1` JSON line) and `status
// prometheus` (text exposition format) are answered and counted in the
// status_requests counter, never in the session counters, so polling
// does not perturb the numbers it reports. The same JSON line is served
// to any connection on ServerOptions::status_port, answered on the accept
// thread so observability keeps working exactly when the pool is
// saturated.
//
// Drain (SIGTERM, or `max_sessions` accepts): request_drain() is
// async-signal-safe — it flips an atomic and writes one byte to a
// self-pipe the accept loop polls next to the listeners. The listeners
// close immediately, queued and in-flight sessions run to completion,
// then wait() returns and the wall-clock gauges freeze.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/load_balancer.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::net {

/// Listener, backpressure and drain settings every session front end
/// shares (ServeOptions and fleet::BalancerOptions derive from it).
struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral, read the choice from port()
  /// Accept-pausing threshold: stop accepting while this many accepted
  /// connections are not yet claimed by a worker.
  std::size_t max_pending = 64;
  /// Drain automatically after this many accepted connections; 0 = serve
  /// until request_drain(). The self-terminating mode tests and the CI
  /// smoke steps rely on.
  std::size_t max_sessions = 0;
  /// Socket send/receive timeout per connection; 0 = block forever. A
  /// recv timeout looks like a disconnected peer (stream EOF).
  double io_timeout_seconds = 0.0;
  int listen_backlog = 512;
  /// Plaintext status endpoint: every connection to this port immediately
  /// receives one `effitest-status-v1` JSON line and is closed — pollable
  /// with netcat/curl, independent of the session listener's backpressure
  /// and its max_sessions budget. -1 disables (the default); 0 binds an
  /// ephemeral port, read the choice from status_port().
  int status_port = -1;
  /// Structured event log for the owner's session events, or nullptr —
  /// the zero-overhead default the perf gates run with.
  obs::StructuredLog* log = nullptr;
};

/// The registry names a SessionServer registers, in registration order —
/// which is the order status JSON renders them in. Counters: accepted,
/// completed, failed, the owner's session_counters, status_requests.
/// Gauges: active_sessions, wall_seconds, sessions_per_sec, queue_depth.
struct SessionMetricNames {
  const char* accepted;
  const char* completed;
  const char* failed;
  std::vector<const char*> session_counters;
  const char* status_requests;
  const char* active_sessions;
  const char* wall_seconds;
  const char* sessions_per_sec;
  const char* queue_depth;
};

class SessionServer {
 public:
  virtual ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Bind, listen, spawn the accept thread and the worker pool. Throws
  /// std::runtime_error when the address cannot be bound.
  void start();

  /// Valid after start(); the kernel's choice when options.port was 0.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& host() const { return options_.host; }
  /// Valid after start() when status_port >= 0; 0 otherwise.
  [[nodiscard]] std::uint16_t status_port() const { return status_port_; }

  /// Async-signal-safe (atomic store + one pipe write): stop accepting,
  /// finish queued and in-flight sessions. Idempotent.
  void request_drain();

  /// Join everything; returns once the last session finished. Idempotent.
  void wait();

  /// Registry snapshot with the wall-clock gauges refreshed; they freeze
  /// once the server drains, so a late end-of-run read is stable. The
  /// counters and histograms are exactly what a concurrent status poll
  /// sees: a poll taken after the last session finished matches the
  /// end-of-run snapshot on every monotonic metric.
  [[nodiscard]] obs::RegistrySnapshot metrics() const;

  /// metrics() as one `effitest-status-v1` JSON line — what the in-band
  /// `status` request and the status_port endpoint return.
  [[nodiscard]] std::string status_json() const;

 protected:
  SessionServer(ServerOptions options, std::size_t workers,
                const SessionMetricNames& names);

  /// Runs one accepted connection on a pool thread. A derived destructor
  /// must request_drain() and wait() first, so no pool thread is still in
  /// here while the derived members die.
  virtual void handle_connection(Socket socket) = 0;

  /// Where the derived class registers its own instruments. Gauges must
  /// be bound before start() (the Gauge::bind contract).
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// The reply to a connection whose first line is an in-band status
  /// request (`status` or `status prometheus`), counted before rendering
  /// so it includes itself; nullopt for any other line.
  [[nodiscard]] std::optional<std::string> answer_status(
      const std::string& first_line);

  /// Bracket one session (a connection that is not a status poll): it is
  /// counted accepted and active, then completed or failed.
  void begin_session();
  void end_session(bool completed);

 private:
  void accept_loop();
  void answer_status_connection();
  void worker_loop(std::size_t w);

  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Listener> status_listener_;
  std::uint16_t port_ = 0;
  std::uint16_t status_port_ = 0;
  LoadBalancer<Socket> pool_;
  std::vector<std::thread> threads_;
  Socket drain_pipe_r_;
  Socket drain_pipe_w_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  // Instruments live in the registry (lock-free on the hot path); the
  // cached pointers stay valid for the server's lifetime. The registry is
  // mutable so metrics() const can refresh the wall-clock gauges.
  mutable obs::MetricsRegistry registry_;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* status_requests_ = nullptr;
  obs::Gauge* active_sessions_ = nullptr;
  obs::Gauge* wall_seconds_ = nullptr;
  obs::Gauge* sessions_per_sec_ = nullptr;

  // Wall-clock epoch, guarded by time_mutex_ (not on the session path).
  mutable std::mutex time_mutex_;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point drained_at_{};
  bool drained_ = false;
};

}  // namespace effitest::net
