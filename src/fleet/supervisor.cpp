#include "fleet/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"

namespace effitest::fleet {

std::optional<WorkerEndpoint> parse_serving_banner(const std::string& line) {
  constexpr const char* kPrefix = "serving on ";
  constexpr std::size_t kPrefixLen = 11;
  if (line.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::string target = line.substr(kPrefixLen);
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == target.size()) {
    return std::nullopt;
  }
  const std::string port_text = target.substr(colon + 1);
  std::uint32_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  WorkerEndpoint endpoint;
  endpoint.host = target.substr(0, colon);
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

ProcessSupervisor::ProcessSupervisor(SupervisorOptions options,
                                     EndpointCallback on_endpoint)
    : options_(std::move(options)), on_endpoint_(std::move(on_endpoint)) {
  if (options_.argv.empty()) {
    throw std::invalid_argument("fleet: supervisor needs a child argv");
  }
  if (options_.children == 0) {
    throw std::invalid_argument("fleet: supervisor needs at least one child");
  }
}

ProcessSupervisor::~ProcessSupervisor() { drain(); }

std::size_t ProcessSupervisor::children() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return children_.size();
}

pid_t ProcessSupervisor::pid(std::size_t child) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return child < children_.size() ? children_[child].pid : -1;
}

std::size_t ProcessSupervisor::restarts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_restarts_;
}

void ProcessSupervisor::spawn_locked(std::size_t index) {
  Child& child = children_[index];
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    throw std::runtime_error("fleet: pipe failed: " +
                             std::string(std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fleet: fork failed: " +
                             std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: banner goes through the pipe; stderr stays inherited so the
    // worker's drain summary lands on the balancer's stderr.
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(options_.argv.size() + 1);
    for (const std::string& arg : options_.argv) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // Exec failed; the parent sees a fast exit + pipe EOF.
    const char* msg = "fleet: exec failed\n";
    (void)!::write(STDERR_FILENO, msg, std::strlen(msg));
    ::_exit(127);
  }
  ::close(fds[1]);
  // Non-blocking read end: the monitor drains on POLLIN and must never
  // hang on a half-written line.
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  (void)::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  child.pid = pid;
  child.pipe = net::Socket(fds[0]);
  child.line_buf.clear();
  child.awaiting_banner = true;
  child.restart_pending = false;
  if (options_.log != nullptr) {
    options_.log->emit(
        "fleet", "worker_spawned",
        {obs::LogField::u64("child", index),
         obs::LogField::u64("pid", static_cast<std::uint64_t>(pid))});
  }
}

void ProcessSupervisor::read_output_locked(std::size_t index) {
  Child& child = children_[index];
  if (!child.pipe.valid()) return;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(child.pipe.fd(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained for now
    }
    if (n == 0) {
      // EOF: the child closed stdout (almost certainly exited — the next
      // waitpid tick reaps it). Stop watching the pipe.
      child.pipe.close();
      return;
    }
    child.line_buf.append(buf, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = child.line_buf.find('\n')) != std::string::npos) {
      std::string line = child.line_buf.substr(0, nl);
      child.line_buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!child.awaiting_banner) continue;
      const std::optional<WorkerEndpoint> endpoint = parse_serving_banner(line);
      if (!endpoint) continue;
      child.awaiting_banner = false;
      child.restarts = 0;  // a healthy banner resets the crash backoff
      if (on_endpoint_) {
        // Fire outside the supervisor lock: the callback typically takes
        // the registry's lock, and holding both invites inversions.
        const EndpointCallback cb = on_endpoint_;
        const WorkerEndpoint ep = *endpoint;
        mutex_.unlock();
        cb(index, ep);
        mutex_.lock();
      }
    }
  }
}

bool ProcessSupervisor::all_ready_locked() const {
  return std::all_of(children_.begin(), children_.end(), [](const Child& c) {
    return c.pid > 0 && !c.awaiting_banner;
  });
}

void ProcessSupervisor::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!children_.empty()) {
      throw std::logic_error("fleet: supervisor started twice");
    }
    children_.resize(options_.children);
    for (std::size_t i = 0; i < children_.size(); ++i) spawn_locked(i);
  }
  // Block until every banner is in (the registry needs endpoints before
  // the balancer routes anything).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.startup_timeout_seconds));
  for (;;) {
    std::vector<pollfd> fds;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (all_ready_locked()) break;
      for (const Child& c : children_) {
        if (c.pipe.valid()) fds.push_back({c.pipe.fd(), POLLIN, 0});
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(
          "fleet: spawned worker did not announce \"serving on\" within " +
          std::to_string(options_.startup_timeout_seconds) + "s");
    }
    if (fds.empty()) {
      throw std::runtime_error(
          "fleet: spawned worker exited before announcing its port");
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < children_.size(); ++i) read_output_locked(i);
    }
  }
  int stop_fds[2] = {-1, -1};
  if (::pipe(stop_fds) != 0) {
    throw std::runtime_error("fleet: pipe failed");
  }
  stop_pipe_r_ = net::Socket(stop_fds[0]);
  stop_pipe_w_ = net::Socket(stop_fds[1]);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    monitoring_ = true;
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

void ProcessSupervisor::monitor_loop() {
  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back({stop_pipe_r_.fd(), POLLIN, 0});
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!monitoring_) return;
      for (const Child& c : children_) {
        if (c.pipe.valid()) fds.push_back({c.pipe.fd(), POLLIN, 0});
      }
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if ((fds[0].revents & POLLIN) != 0) return;  // drain requested

    std::unique_lock<std::mutex> lock(mutex_);
    if (!monitoring_) return;
    for (std::size_t i = 0; i < children_.size(); ++i) read_output_locked(i);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < children_.size(); ++i) {
      Child& child = children_[i];
      if (child.pid > 0) {
        int status = 0;
        const pid_t reaped = ::waitpid(child.pid, &status, WNOHANG);
        if (reaped == child.pid) {
          child.pipe.close();
          child.pid = -1;
          child.awaiting_banner = false;
          if (options_.log != nullptr) {
            options_.log->emit(
                "fleet", "worker_exited",
                {obs::LogField::u64("child", i),
                 obs::LogField::u64(
                     "status", static_cast<std::uint64_t>(
                                   WIFEXITED(status) ? WEXITSTATUS(status)
                                                     : 128 + WTERMSIG(status))),
                 obs::LogField::boolean("will_restart",
                                        options_.restart_on_crash)});
          }
          if (options_.restart_on_crash) {
            // Exponential backoff per consecutive crash; a scraped banner
            // resets the exponent.
            const double delay = std::min(
                options_.backoff_base_seconds *
                    std::exp2(static_cast<double>(child.restarts)),
                options_.backoff_max_seconds);
            child.restart_pending = true;
            child.restart_at =
                now + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(delay));
            ++child.restarts;
          }
        }
      } else if (child.restart_pending && now >= child.restart_at) {
        spawn_locked(i);
        ++total_restarts_;
      }
    }
  }
}

void ProcessSupervisor::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
    monitoring_ = false;
  }
  if (stop_pipe_w_.valid()) {
    const char byte = 'd';
    (void)!::write(stop_pipe_w_.fd(), &byte, 1);
  }
  if (monitor_.joinable()) monitor_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < children_.size(); ++i) {
    Child& child = children_[i];
    child.restart_pending = false;
    if (child.pid <= 0) continue;
    (void)::kill(child.pid, SIGTERM);
  }
  for (std::size_t i = 0; i < children_.size(); ++i) {
    Child& child = children_[i];
    if (child.pid <= 0) continue;
    int status = 0;
    pid_t reaped = -1;
    do {
      reaped = ::waitpid(child.pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    child.pid = -1;
    child.pipe.close();
  }
  stop_pipe_r_.close();
  stop_pipe_w_.close();
}

}  // namespace effitest::fleet
