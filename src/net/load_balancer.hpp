#pragma once
// Worker-priority dispatch queue for the session server
// (net/session_server.hpp).
//
// Each worker owns a deque; dispatch() pushes a task onto the deque of the
// least-loaded worker, where load = tasks queued for it + the task it is
// currently running. A worker pops from the front of its own deque and,
// when that is empty, steals from the BACK of the most-loaded sibling, so
// one long tuning session never strands the connections queued behind it
// while other workers sit idle.
//
// The accept loop reads queued() for backpressure: when the total backlog
// reaches ServerOptions::max_pending it simply stops accepting — pending
// connections wait in the kernel's listen backlog instead of a user-space
// queue, so no client is ever busy-rejected (a requirement for driving
// hundreds of concurrent loopback sessions through a handful of workers).
//
// One mutex guards all deques. At session granularity (a task is a whole
// TCP connection, served for many milliseconds) the contention is
// irrelevant and the single lock keeps close()/steal semantics trivially
// race-free — this is not a work-stealing scheduler for microtasks; that
// lives in parallel/thread_pool.hpp.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace effitest::net {

template <typename Task>
class LoadBalancer {
 public:
  explicit LoadBalancer(std::size_t workers)
      : queues_(workers == 0 ? 1 : workers),
        running_(queues_.size(), false) {}

  [[nodiscard]] std::size_t workers() const { return queues_.size(); }

  /// Enqueue for the least-loaded worker. Returns false (task dropped)
  /// after close().
  bool dispatch(Task task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      std::size_t best = 0;
      std::size_t best_load = load_locked(0);
      for (std::size_t w = 1; w < queues_.size(); ++w) {
        const std::size_t load = load_locked(w);
        if (load < best_load) {
          best = w;
          best_load = load;
        }
      }
      queues_[best].push_back(std::move(task));
      ++queued_;
    }
    ready_.notify_all();
    return true;
  }

  /// Blocking pop for worker `w`: own queue first, then steal from the
  /// most-loaded sibling. Empty optional = closed and fully drained; the
  /// worker should exit. Pair the returned task with task_done(w).
  [[nodiscard]] std::optional<Task> next(std::size_t w) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (!queues_[w].empty()) {
        Task task = std::move(queues_[w].front());
        queues_[w].pop_front();
        return claim_locked(w, std::move(task));
      }
      std::size_t victim = queues_.size();
      std::size_t victim_size = 0;
      for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (queues_[v].size() > victim_size) {
          victim = v;
          victim_size = queues_[v].size();
        }
      }
      if (victim < queues_.size()) {
        Task task = std::move(queues_[victim].back());
        queues_[victim].pop_back();
        return claim_locked(w, std::move(task));
      }
      if (closed_) return std::nullopt;
      ready_.wait(lock);
    }
  }

  void task_done(std::size_t w) {
    std::lock_guard<std::mutex> lock(mutex_);
    running_[w] = false;
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
    return queued_;
  }

 private:
  [[nodiscard]] std::size_t load_locked(std::size_t w) const {
    return queues_[w].size() + (running_[w] ? 1 : 0);
  }

  [[nodiscard]] std::optional<Task> claim_locked(std::size_t w, Task task) {
    --queued_;
    running_[w] = true;
    return std::optional<Task>(std::move(task));
  }

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<std::deque<Task>> queues_;
  std::vector<bool> running_;  ///< guarded by mutex_ (not atomic-per-bit)
  std::size_t queued_ = 0;
  bool closed_ = false;
};

}  // namespace effitest::net
