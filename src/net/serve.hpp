#pragma once
// TCP serve mode: one TunerService, thousands of concurrent chip-tuning
// sessions (`effitest_cli serve` / bench_serve). DESIGN.md §13.
//
// Wire protocol, layered on io/tune_protocol.hpp line framing:
//
//   client:  hello effitest-tune-v1 chips=<n> [lenient] [window=<w>]
//   server:  serve effitest-tune-v1 session=<id> seed=<base>
//   ...the standard effitest-tune-v1 exchange (header, stimulus/response,
//      report, bye), byte-identical to `effitest_cli tune`...
//
// A connection whose first line is `status` (or `status prometheus`)
// instead of a hello is answered by the SessionServer's status path
// (net/session_server.hpp) and closed, counted in serve.status_requests
// and never in the session counters.
//
// The greeting carries monte_carlo_seed_base() because a client simulating
// dies cannot recompute it: the base falls out of the offline phase's RNG
// fork order, which only the server ran. With it, client-side die c is
// sampled stats::Rng(parallel::index_seed(seed, c)) — exactly run_flow's
// Monte-Carlo loop — so a loopback client's reports are byte-identical to
// `tune --simulate` for the same circuit and flow options.
//
// Accept thread, worker pool, accept-pausing backpressure, the status
// listener and the async-signal-safe drain are net::SessionServer's; this
// loop supplies the per-connection handler (hello, then one io::TuneServer
// session). Per-session backpressure reuses the protocol's chip_window: at
// most `chip_window` live TuningSessions per connection, responses for
// unadmitted chips parked in the reorder buffer under the same
// kMaxPendingWindow bound as every other mode. A client that vanishes
// mid-session surfaces as stream EOF inside that one session; sibling
// sessions never notice.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/tuner_service.hpp"
#include "net/session_server.hpp"
#include "obs/metrics.hpp"

namespace effitest::net {

struct ServeOptions : ServerOptions {
  std::size_t workers = 8;
  /// Per-session chip window forced by the server; 0 honors the client's
  /// `window=` request (or no window at all). A nonzero value caps the
  /// client's request.
  std::size_t chip_window = 0;
  /// hello chips=<n> above this is rejected before any session state is
  /// allocated (an `error - ...` line, then close).
  std::size_t max_chips_per_session = 100000;
};

// Metric names the serve loop registers (obs::MetricsRegistry). Counters
// are monotonic; the latency histogram records per-session wall seconds
// into power-of-two-microsecond buckets (obs::Histogram).
// `serve.wall_seconds`/`serve.sessions_per_sec` are refreshed at snapshot
// time and freeze once the loop drains, so the end-of-run summary is
// stable however late it is read.
inline constexpr const char* kMetricSessionsAccepted =
    "serve.sessions_accepted";
inline constexpr const char* kMetricSessionsCompleted =
    "serve.sessions_completed";
inline constexpr const char* kMetricSessionsFailed = "serve.sessions_failed";
inline constexpr const char* kMetricChipsTuned = "serve.chips_tuned";
inline constexpr const char* kMetricStimuli = "serve.stimuli";
inline constexpr const char* kMetricStatusRequests = "serve.status_requests";
inline constexpr const char* kMetricActiveSessions = "serve.active_sessions";
inline constexpr const char* kMetricQueueDepth = "serve.queue_depth";
inline constexpr const char* kMetricWallSeconds = "serve.wall_seconds";
inline constexpr const char* kMetricSessionsPerSec = "serve.sessions_per_sec";
inline constexpr const char* kMetricSessionLatency =
    "serve.session_latency_us";

/// The serve front end: a SessionServer whose connection handler parses
/// the hello and runs one io::TuneServer session.
class TuneServeLoop : public SessionServer {
 public:
  TuneServeLoop(const core::TunerService& service, ServeOptions options);
  ~TuneServeLoop() override;

 private:
  void handle_connection(Socket socket) override;

  const core::TunerService* service_;
  ServeOptions options_;
  std::atomic<std::uint64_t> next_session_id_{0};
  // Cached from the server's registry; valid for the loop's lifetime.
  obs::Counter* chips_tuned_;
  obs::Counter* stimuli_;
  obs::Histogram* latency_;
};

}  // namespace effitest::net
