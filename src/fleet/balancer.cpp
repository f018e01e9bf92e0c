#include "fleet/balancer.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/log.hpp"

namespace effitest::fleet {

namespace {

/// Buffered line reader over a raw fd. The relay cannot use SocketStream
/// here: its streambuf flushes the put area from underflow, so sharing one
/// stream between the uplink and downlink threads would race. Reading with
/// a private buffer and writing with bare send(2) keeps each direction
/// self-contained (recv and send on one fd from two threads is safe).
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// False on EOF, error, or receive timeout — all "the peer is gone".
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      char chunk[4096];
      ssize_t n = 0;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

bool send_all(int fd, const std::string& data) {
  const char* p = data.data();
  const char* end = p + data.size();
  while (p < end) {
    const ssize_t n =
        ::send(fd, p, static_cast<std::size_t>(end - p), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
  }
  return true;
}

/// Seed base out of `serve effitest-tune-v1 session=<id> seed=<base>`.
std::optional<std::uint64_t> parse_greeting_seed(const std::string& greeting) {
  std::istringstream is(greeting);
  std::string tag, token;
  if (!(is >> tag) || tag != "serve") return std::nullopt;
  while (is >> token) {
    if (token.rfind("seed=", 0) == 0) {
      try {
        return std::stoull(token.substr(5));
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
  }
  return std::nullopt;
}

/// Shared mutable session state between the downlink (relay worker) and
/// uplink threads. The mutex orders backlog appends + live forwards
/// against a migration's backlog replay, and guards worker_fd so the
/// uplink never writes to a socket the downlink is closing.
struct SessionState {
  std::mutex mutex;
  std::vector<std::string> backlog;  ///< client lines after hello, no '\n'
  int worker_fd = -1;                ///< -1 while detached / migrating
  bool client_gone = false;
};

}  // namespace

FleetBalancer::FleetBalancer(WorkerRegistry& registry, BalancerOptions options)
    : SessionServer(options, options.relay_workers,
                    {kFleetSessionsRouted,
                     kFleetSessionsCompleted,
                     kFleetSessionsFailed,
                     {kFleetSessionsRetried},
                     kFleetStatusRequests,
                     kFleetActiveSessions,
                     kFleetWallSeconds,
                     kFleetSessionsPerSec,
                     kFleetQueueDepth}),
      registry_(&registry),
      options_(std::move(options)),
      retried_(&metrics_registry().counter(kFleetSessionsRetried)) {
  // All binds happen before any thread exists (the Gauge::bind contract).
  obs::MetricsRegistry& instruments = metrics_registry();
  instruments.gauge(kFleetWorkersLive).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kLive));
  });
  instruments.gauge(kFleetWorkersDegraded).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kDegraded));
  });
  instruments.gauge(kFleetWorkersDead).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kDead));
  });
  for (std::size_t slot = 0; slot < registry.size(); ++slot) {
    const std::string prefix = "fleet.worker" + std::to_string(slot);
    instruments.gauge(prefix + ".live_sessions").bind([this, slot] {
      return static_cast<double>(registry_->in_flight(slot));
    });
    instruments.gauge(prefix + ".queue_depth").bind([this, slot] {
      return registry_->probed_queue_depth(slot);
    });
  }
}

FleetBalancer::~FleetBalancer() {
  // Join the pool while every member its handler touches is still alive.
  request_drain();
  wait();
}

void FleetBalancer::handle_connection(net::Socket client) {
  FdLineReader client_reader(client.fd());
  std::string hello;
  if (!client_reader.read_line(hello)) return;  // vanished before hello
  if (const auto reply = answer_status(hello)) {
    (void)send_all(client.fd(), *reply);
    return;
  }
  begin_session();

  SessionState state;
  // Uplink: every client line is recorded for replay AND forwarded to the
  // current worker, atomically with respect to migrations. While detached
  // (worker_fd -1) lines just queue up in the backlog; the replay delivers
  // them. A failed forward is ignored here — the downlink notices the dead
  // worker on its next read and runs the migration.
  std::thread uplink([&] {
    std::string line;
    while (client_reader.read_line(line)) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.backlog.push_back(line);
      if (state.worker_fd >= 0) {
        (void)send_all(state.worker_fd, line + "\n");
      }
    }
    int worker_fd = -1;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.client_gone = true;
      worker_fd = state.worker_fd;
    }
    // Half-close: the worker's session sees EOF and aborts; the fd itself
    // stays owned (and eventually closed) by the downlink.
    if (worker_fd >= 0) (void)::shutdown(worker_fd, SHUT_WR);
  });

  net::Socket worker_sock;
  std::optional<std::size_t> slot;
  std::optional<FdLineReader> worker_reader;
  std::uint64_t seed_base = 0;
  bool greeting_forwarded = false;
  std::size_t forwarded = 0;  // server lines the client holds, post-greeting
  std::size_t attaches_left = 1 + options_.max_session_retries;
  std::size_t attach_attempts = 0;
  bool completed = false;
  bool failed = false;
  std::string failure_reason;

  // Detach from the current worker (if any): unpublish the fd so the
  // uplink stops forwarding, demote the slot when the worker died, release
  // the routing claim, close the socket.
  const auto drop_worker = [&](bool worker_died) {
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.worker_fd = -1;
    }
    if (slot) {
      if (worker_died) registry_->report_failure(*slot);
      registry_->release(*slot);
      slot.reset();
    }
    worker_reader.reset();
    worker_sock.close();
  };

  while (!completed && !failed) {
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (state.client_gone) break;
    }
    if (!worker_sock.valid()) {
      // ---- attach (or re-attach after a death) ----
      if (attaches_left == 0) {
        failure_reason = "fleet exhausted after " +
                         std::to_string(attach_attempts) +
                         " attach attempts";
        (void)send_all(client.fd(), "error - " + failure_reason + "\n");
        failed = true;
        break;
      }
      --attaches_left;
      ++attach_attempts;
      if (attach_attempts > 1) {
        retried_->inc();
        // Give a supervisor restart / probe re-admission a beat to land.
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.attach_backoff_seconds));
      }
      slot = registry_->acquire();
      if (!slot) continue;  // nothing routable right now; costs an attempt
      const WorkerEndpoint endpoint = registry_->endpoint(*slot);
      try {
        net::Socket s = net::connect_to(endpoint.host, endpoint.port);
        s.set_io_timeout(options_.io_timeout_seconds);
        worker_sock = std::move(s);
      } catch (const std::exception&) {
        registry_->report_failure(*slot);
        registry_->release(*slot);
        slot.reset();
        continue;
      }
      worker_reader.emplace(worker_sock.fd());
      if (!send_all(worker_sock.fd(), hello + "\n")) {
        drop_worker(true);
        continue;
      }
      std::string greeting;
      if (!worker_reader->read_line(greeting)) {
        drop_worker(true);
        continue;
      }
      if (greeting.rfind("error -", 0) == 0) {
        // The worker rejected the hello. Deterministic — every worker
        // would say the same — so forward it and never retry.
        (void)send_all(client.fd(), greeting + "\n");
        failure_reason = greeting;
        failed = true;
        drop_worker(false);
        break;
      }
      const std::optional<std::uint64_t> seed = parse_greeting_seed(greeting);
      if (!seed) {
        drop_worker(true);  // not speaking the protocol: treat as dead
        continue;
      }
      if (!greeting_forwarded) {
        if (!send_all(client.fd(), greeting + "\n")) {
          failure_reason = "client disconnected";
          failed = true;
          drop_worker(false);
          break;
        }
        seed_base = *seed;
        greeting_forwarded = true;
      } else if (*seed != seed_base) {
        // Determinism contract broken: this worker serves a different
        // problem/seed, replaying would hand the client divergent bytes.
        failure_reason = "fleet worker seed mismatch (got " +
                         std::to_string(*seed) + ", session started with " +
                         std::to_string(seed_base) + ")";
        (void)send_all(client.fd(), "error - " + failure_reason + "\n");
        failed = true;
        drop_worker(false);
        break;
      }
      // Replay the recorded client lines and publish the new fd in one
      // critical section, so live uplink lines land strictly after the
      // backlog they are not yet part of.
      bool replay_ok = true;
      std::size_t replayed = 0;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        for (const std::string& line : state.backlog) {
          if (!send_all(worker_sock.fd(), line + "\n")) {
            replay_ok = false;
            break;
          }
        }
        if (replay_ok) {
          state.worker_fd = worker_sock.fd();
          replayed = state.backlog.size();
        }
      }
      if (!replay_ok) {
        drop_worker(true);
        continue;
      }
      // Discard the prefix the client already holds. Deterministic serve
      // output under the same seed and line order makes these bytes
      // identical to what was already forwarded; the old worker produced
      // `forwarded` lines from this very backlog, so the new one cannot
      // block before producing as many.
      bool discard_ok = true;
      std::string discard;
      for (std::size_t i = 0; i < forwarded; ++i) {
        if (!worker_reader->read_line(discard)) {
          discard_ok = false;
          break;
        }
      }
      if (!discard_ok) {
        drop_worker(true);
        continue;
      }
      if (options_.log != nullptr && attach_attempts > 1) {
        options_.log->emit(
            "fleet", "session_migrated",
            {obs::LogField::u64("slot", *slot),
             obs::LogField::str("worker", endpoint.to_string()),
             obs::LogField::u64("replayed", replayed),
             obs::LogField::u64("discarded", forwarded)});
      }
    }
    // ---- relay: worker -> client until bye, death, or fatal error ----
    std::string line;
    for (;;) {
      if (!worker_reader->read_line(line)) {
        drop_worker(true);  // mid-session death: migrate
        break;
      }
      const bool fatal = line.rfind("error -", 0) == 0;
      const bool bye = line == "bye";
      // The worker is done at its bye: release the routing claim before
      // the client can see the session end, so the tester's next session
      // already finds this worker idle.
      if (bye) drop_worker(false);
      if (!send_all(client.fd(), line + "\n")) {
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          state.client_gone = true;
        }
        failure_reason = "client disconnected";
        failed = true;
        drop_worker(false);  // closing the socket EOFs the worker session
        break;
      }
      ++forwarded;
      if (fatal) {
        // Mid-session strict-mode abort: deterministic, never retried.
        failure_reason = line;
        failed = true;
        drop_worker(false);
        break;
      }
      if (bye) {
        completed = true;
        break;
      }
    }
  }
  if (!completed && !failed) {
    failure_reason = "client disconnected";
    failed = true;
  }
  drop_worker(false);
  // Pop the uplink out of its blocking recv, then join it; only after
  // that may the client socket die.
  net::shutdown_read(client);
  uplink.join();
  end_session(completed);
  if (options_.log != nullptr) {
    if (completed) {
      options_.log->emit("fleet", "session_complete",
                         {obs::LogField::u64("forwarded", forwarded),
                          obs::LogField::u64("attaches", attach_attempts)});
    } else {
      options_.log->emit("fleet", "session_failed",
                         {obs::LogField::str("reason", failure_reason),
                          obs::LogField::u64("attaches", attach_attempts)});
    }
  }
}

}  // namespace effitest::fleet
