#include "net/session_server.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

namespace effitest::net {

SessionServer::SessionServer(ServerOptions options, std::size_t workers,
                             const SessionMetricNames& names)
    : options_(std::move(options)), workers_(workers == 0 ? 1 : workers) {
  // Registration order is status JSON order (SessionMetricNames).
  accepted_ = &registry_.counter(names.accepted);
  completed_ = &registry_.counter(names.completed);
  failed_ = &registry_.counter(names.failed);
  for (const char* name : names.session_counters) {
    (void)registry_.counter(name);
  }
  status_requests_ = &registry_.counter(names.status_requests);
  active_sessions_ = &registry_.gauge(names.active_sessions);
  wall_seconds_ = &registry_.gauge(names.wall_seconds);
  sessions_per_sec_ = &registry_.gauge(names.sessions_per_sec);
  // Bound before any thread exists (the Gauge::bind contract).
  registry_.gauge(names.queue_depth).bind([this] {
    return static_cast<double>(pool_.queued());
  });
}

SessionServer::~SessionServer() {
  request_drain();
  wait();
}

void SessionServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("session server: start() called twice");
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("session server: pipe failed");
  }
  drain_pipe_r_ = Socket(pipe_fds[0]);
  drain_pipe_w_ = Socket(pipe_fds[1]);
  constexpr int kListenBacklog = 512;
  listener_ = std::make_unique<Listener>(options_.host, options_.port,
                                         kListenBacklog);
  port_ = listener_->port();
  if (options_.status_port >= 0) {
    status_listener_ = std::make_unique<Listener>(
        options_.host, static_cast<std::uint16_t>(options_.status_port),
        kListenBacklog);
    status_port_ = status_listener_->port();
  }
  {
    std::lock_guard<std::mutex> lock(time_mutex_);
    started_at_ = std::chrono::steady_clock::now();
  }
  threads_.reserve(workers_ + 1);
  threads_.emplace_back([this] { accept_loop(); });
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void SessionServer::request_drain() {
  // Called from signal handlers: atomic store + one write(2), nothing else.
  if (draining_.exchange(true)) return;
  if (drain_pipe_w_.valid()) {
    const char byte = 'd';
    (void)!::write(drain_pipe_w_.fd(), &byte, 1);
  }
}

void SessionServer::wait() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  std::lock_guard<std::mutex> lock(time_mutex_);
  if (!drained_ && started_.load()) {
    drained_ = true;
    drained_at_ = std::chrono::steady_clock::now();
  }
}

void SessionServer::accept_loop() {
  std::size_t accepted = 0;
  while (!draining_.load(std::memory_order_relaxed)) {
    // Backpressure: with the backlog full, stop watching the session
    // listener and re-check the queue on a short tick — pending
    // connections sit in the kernel's listen queue, nobody is rejected.
    // The status listener stays in the poll set even then.
    const bool paused = pool_.queued() >= options_.max_pending;
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {drain_pipe_r_.fd(), POLLIN, 0};
    std::size_t session_idx = 0;
    if (!paused) {
      session_idx = nfds;
      fds[nfds++] = {listener_->fd(), POLLIN, 0};
    }
    std::size_t status_idx = 0;
    if (status_listener_ != nullptr) {
      status_idx = nfds;
      fds[nfds++] = {status_listener_->fd(), POLLIN, 0};
    }
    const int n = ::poll(fds, nfds, paused ? 50 : 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // drain requested
    if (status_idx != 0 && (fds[status_idx].revents & POLLIN) != 0) {
      answer_status_connection();
    }
    if (paused || n == 0 || (fds[session_idx].revents & POLLIN) == 0) {
      continue;
    }
    Socket conn = listener_->accept();
    if (!conn.valid()) continue;
    conn.set_io_timeout(options_.io_timeout_seconds);
    pool_.dispatch(std::move(conn));
    ++accepted;
    if (options_.max_sessions != 0 && accepted >= options_.max_sessions) {
      request_drain();
      break;
    }
  }
  // Stop the kernel from queueing more connections, then let the workers
  // finish everything already accepted.
  listener_->close();
  if (status_listener_ != nullptr) status_listener_->close();
  pool_.close();
}

void SessionServer::answer_status_connection() {
  // Runs on the accept thread: a short send timeout keeps one stalled
  // poller from ever blocking accepts for long.
  Socket conn = status_listener_->accept();
  if (!conn.valid()) return;
  conn.set_io_timeout(1.0);
  status_requests_->inc();  // before rendering, so the reply includes itself
  const std::string line = status_json() + "\n";
  SocketStream stream(std::move(conn));
  stream << line;
  stream.flush();
  // Drain whatever the poller sent (fetch_status writes "status\n" to
  // work against both kinds of status socket) before closing: closing
  // with unread input makes TCP answer the client's bytes with an RST,
  // which can destroy the reply still sitting in its receive buffer. The
  // 1s io timeout above bounds a poller that neither writes nor closes.
  std::string discard;
  (void)std::getline(stream, discard);
}

void SessionServer::worker_loop() {
  while (auto task = pool_.next()) handle_connection(std::move(*task));
}

std::optional<std::string> SessionServer::answer_status(
    const std::string& first_line) {
  if (first_line == "status") {
    status_requests_->inc();
    return status_json() + "\n";
  }
  if (first_line == "status prometheus") {
    status_requests_->inc();
    return obs::render_prometheus_text(metrics());
  }
  return std::nullopt;
}

void SessionServer::begin_session() {
  accepted_->inc();
  active_sessions_->add(1.0);
}

void SessionServer::end_session(bool completed) {
  active_sessions_->add(-1.0);
  (completed ? completed_ : failed_)->inc();
}

obs::RegistrySnapshot SessionServer::metrics() const {
  double wall = 0.0;
  {
    std::lock_guard<std::mutex> lock(time_mutex_);
    if (started_at_.time_since_epoch().count() != 0) {
      const auto end =
          drained_ ? drained_at_ : std::chrono::steady_clock::now();
      wall = std::chrono::duration<double>(end - started_at_).count();
    }
  }
  wall_seconds_->set(wall);
  sessions_per_sec_->set(
      wall > 0.0 ? static_cast<double>(completed_->value()) / wall : 0.0);
  return registry_.snapshot();
}

std::string SessionServer::status_json() const {
  return obs::render_status_json(metrics());
}

}  // namespace effitest::net
