#include "fleet/registry.hpp"

#include <chrono>
#include <utility>

#include "io/json.hpp"
#include "net/client.hpp"

namespace effitest::fleet {

const char* health_name(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kLive:
      return "live";
    case WorkerHealth::kDegraded:
      return "degraded";
    case WorkerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

ProbeResult parse_worker_status(const std::string& line) {
  ProbeResult result;
  try {
    io::json::Parser parser(line, "worker-status");
    const io::json::Value doc = parser.parse();
    const io::json::Value* schema = doc.find("schema");
    if (schema == nullptr || schema->kind != io::json::Value::Kind::kString ||
        schema->string != "effitest-status-v1") {
      return result;
    }
    const io::json::Value* gauges = doc.find("gauges");
    if (gauges != nullptr && gauges->kind == io::json::Value::Kind::kObject) {
      if (const io::json::Value* qd = gauges->find("serve.queue_depth")) {
        if (qd->kind == io::json::Value::Kind::kNumber) {
          result.queue_depth = qd->number;
        }
      }
      if (const io::json::Value* as = gauges->find("serve.active_sessions")) {
        if (as->kind == io::json::Value::Kind::kNumber) {
          result.active_sessions = as->number;
        }
      }
    }
    result.ok = true;
  } catch (const io::json::ParseError&) {
    // ok stays false: a worker answering garbage counts as a failed probe.
  }
  return result;
}

WorkerRegistry::WorkerRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  const double timeout = options_.probe_timeout_seconds;
  prober_ = [timeout](const WorkerEndpoint& endpoint) {
    try {
      return parse_worker_status(
          net::fetch_status(endpoint.host, endpoint.port, timeout));
    } catch (const std::exception&) {
      return ProbeResult{};
    }
  };
}

WorkerRegistry::~WorkerRegistry() { stop_probing(); }

std::size_t WorkerRegistry::add_worker(WorkerEndpoint endpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Slot slot;
  const bool known = endpoint.known();
  slot.endpoint = std::move(endpoint);
  // A known endpoint starts live (it was just scraped from a banner or
  // given on the command line); the first failed probe or session demotes
  // it. An unknown one is unroutable until update_endpoint().
  slot.health = known ? WorkerHealth::kLive : WorkerHealth::kDead;
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void WorkerRegistry::update_endpoint(std::size_t slot,
                                     WorkerEndpoint endpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return;
  slots_[slot].endpoint = std::move(endpoint);
  slots_[slot].health =
      slots_[slot].endpoint.known() ? WorkerHealth::kLive : WorkerHealth::kDead;
  slots_[slot].consecutive_failures = 0;
  slots_[slot].probed_queue_depth = 0.0;
  slots_[slot].probed_active_sessions = 0.0;
}

std::size_t WorkerRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

WorkerEndpoint WorkerRegistry::endpoint(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].endpoint : WorkerEndpoint{};
}

WorkerHealth WorkerRegistry::health(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].health : WorkerHealth::kDead;
}

std::size_t WorkerRegistry::count(WorkerHealth health) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Slot& slot : slots_) {
    if (slot.health == health) ++n;
  }
  return n;
}

void WorkerRegistry::set_prober(Prober prober) {
  const std::lock_guard<std::mutex> lock(mutex_);
  prober_ = std::move(prober);
}

void WorkerRegistry::apply_probe(std::size_t slot, const ProbeResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (result.ok) {
    // One good answer re-admits from any state — restarted workers rejoin
    // the rotation within a probe interval.
    s.health = WorkerHealth::kLive;
    s.consecutive_failures = 0;
    s.probed_queue_depth = result.queue_depth;
    s.probed_active_sessions = result.active_sessions;
    return;
  }
  ++s.consecutive_failures;
  if (s.consecutive_failures >= options_.dead_after) {
    s.health = WorkerHealth::kDead;
  } else if (s.consecutive_failures >= options_.degraded_after) {
    s.health = WorkerHealth::kDegraded;
  }
}

void WorkerRegistry::probe_all() {
  // Snapshot endpoints under the lock, probe outside it (network I/O),
  // apply under the lock again. A slot whose endpoint changes mid-probe
  // gets a stale verdict for one round — the next round corrects it.
  std::vector<std::pair<std::size_t, WorkerEndpoint>> targets;
  Prober prober;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    prober = prober_;
    targets.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].endpoint.known()) targets.emplace_back(i, slots_[i].endpoint);
    }
  }
  for (const auto& [slot, endpoint] : targets) {
    apply_probe(slot, prober(endpoint));
  }
}

void WorkerRegistry::start_probing() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (probing_) return;
    probing_ = true;
  }
  prober_thread_ = std::thread([this] { prober_loop(); });
}

void WorkerRegistry::stop_probing() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!probing_) return;
    probing_ = false;
  }
  stop_cv_.notify_all();
  if (prober_thread_.joinable()) prober_thread_.join();
}

void WorkerRegistry::prober_loop() {
  const std::chrono::milliseconds interval(
      options_.probe_interval_seconds <= 0.0
          ? 100
          : static_cast<int>(options_.probe_interval_seconds * 1e3));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stop_cv_.wait_for(lock, interval, [this] { return !probing_; })) {
        return;  // stop requested
      }
    }
    probe_all();
  }
}

std::optional<std::size_t> WorkerRegistry::acquire() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Two passes: live slots first, degraded only as a last resort. Lowest
  // in-flight wins, ties to the lowest index (deterministic routing).
  for (const WorkerHealth wanted :
       {WorkerHealth::kLive, WorkerHealth::kDegraded}) {
    std::size_t best = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].health != wanted || !slots_[i].endpoint.known()) continue;
      if (best == slots_.size() ||
          slots_[i].in_flight < slots_[best].in_flight) {
        best = i;
      }
    }
    if (best < slots_.size()) {
      ++slots_[best].in_flight;
      return best;
    }
  }
  return std::nullopt;
}

void WorkerRegistry::release(std::size_t slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot < slots_.size() && slots_[slot].in_flight > 0) {
    --slots_[slot].in_flight;
  }
}

void WorkerRegistry::report_failure(std::size_t slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return;
  slots_[slot].health = WorkerHealth::kDead;
  slots_[slot].consecutive_failures = options_.dead_after;
}

std::size_t WorkerRegistry::in_flight(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].in_flight : 0;
}

double WorkerRegistry::probed_queue_depth(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].probed_queue_depth : 0.0;
}

double WorkerRegistry::probed_active_sessions(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].probed_active_sessions : 0.0;
}

}  // namespace effitest::fleet
