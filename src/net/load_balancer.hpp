#pragma once
// Dispatch queue for the session server (net/session_server.hpp).
//
// One FIFO deque shared by every worker: dispatch() appends a task, and
// whichever worker is idle pops the oldest one. Any idle worker therefore
// takes queued work, so one long tuning session never strands the
// connections queued behind it, and connections are served in accept
// order.
//
// The accept loop reads queued() for backpressure: when the backlog
// reaches ServerOptions::max_pending it simply stops accepting — pending
// connections wait in the kernel's listen backlog instead of a user-space
// queue, so no client is ever busy-rejected (a requirement for driving
// hundreds of concurrent loopback sessions through a handful of workers).
//
// A task is a whole TCP connection, served for many milliseconds, so one
// mutex is all the synchronisation needed — this is not a scheduler for
// microtasks; that lives in parallel/thread_pool.hpp.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace effitest::net {

template <typename Task>
class LoadBalancer {
 public:
  /// Append to the queue. Returns false (task dropped) after close().
  bool dispatch(Task task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(task));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking pop of the oldest task. Empty optional = closed and fully
  /// drained; the worker should exit.
  [[nodiscard]] std::optional<Task> next() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    std::optional<Task> task(std::move(queue_.front()));
    queue_.pop_front();
    return task;
  }

  /// No further dispatches; blocked workers drain the backlog then exit.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  /// Tasks accepted but not yet claimed by a worker (the accept loop's
  /// backpressure signal and the queue_depth gauge).
  [[nodiscard]] std::size_t queued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Task> queue_;
  bool closed_ = false;
};

}  // namespace effitest::net
