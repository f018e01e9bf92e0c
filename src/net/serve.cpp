#include "net/serve.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "obs/log.hpp"

namespace effitest::net {

namespace {

/// The hello grammar is net::parse_hello's; this adds the server's policy:
/// the per-session chip limit, and the server-side window capping the
/// client's request (a client that asked for none gets the server's).
Hello admit_hello(const std::string& line, const ServeOptions& options) {
  Hello h = parse_hello(line);
  if (!h.error.empty()) return h;
  if (h.chips > options.max_chips_per_session) {
    h.error = "chips=" + std::to_string(h.chips) +
              " exceeds this server's per-session limit of " +
              std::to_string(options.max_chips_per_session);
    return h;
  }
  if (options.chip_window != 0) {
    h.window = h.window == 0 ? options.chip_window
                             : std::min(h.window, options.chip_window);
  }
  return h;
}

}  // namespace

TuneServeLoop::TuneServeLoop(const core::TunerService& service,
                             ServeOptions options)
    : SessionServer(options, options.workers,
                    {kMetricSessionsAccepted,
                     kMetricSessionsCompleted,
                     kMetricSessionsFailed,
                     {kMetricChipsTuned, kMetricStimuli},
                     kMetricStatusRequests,
                     kMetricActiveSessions,
                     kMetricWallSeconds,
                     kMetricSessionsPerSec,
                     kMetricQueueDepth}),
      service_(&service),
      options_(std::move(options)),
      chips_tuned_(&metrics_registry().counter(kMetricChipsTuned)),
      stimuli_(&metrics_registry().counter(kMetricStimuli)),
      latency_(&metrics_registry().histogram(kMetricSessionLatency)) {}

TuneServeLoop::~TuneServeLoop() {
  // Join the pool while every member its handler touches is still alive.
  request_drain();
  wait();
}

void TuneServeLoop::handle_connection(Socket socket) {
  const auto session_start = std::chrono::steady_clock::now();
  SocketStream stream(std::move(socket));
  std::string line;
  Hello hello;
  bool got_line = false;
  if (std::getline(stream, line)) {
    got_line = true;
    if (!line.empty() && line.back() == '\r') line.pop_back();
  }
  // An in-band status poll: answered and closed without touching the
  // session counters, so watching a fleet does not change what it reports.
  if (got_line) {
    if (const auto reply = answer_status(line)) {
      stream << *reply;
      stream.flush();
      return;
    }
  }
  begin_session();
  if (!got_line) {
    hello.error = "connection closed before hello";
  } else {
    hello = admit_hello(line, options_);
  }
  bool completed = false;
  std::uint64_t id = 0;
  std::size_t chips = 0;
  std::string failure = hello.error;
  if (hello.error.empty()) {
    id = next_session_id_.fetch_add(1);
    stream << "serve effitest-tune-v1 session=" << id
           << " seed=" << service_->monte_carlo_seed_base() << '\n';
    stream.flush();
    io::TuneServerOptions topts;
    topts.lenient = hello.lenient;
    topts.chip_window = hello.window;
    topts.live_stimuli = stimuli_;
    topts.log = options_.log;
    io::TuneServer server(*service_, hello.chips, topts);
    try {
      // Stimuli are counted live through topts.live_stimuli as each line
      // is emitted; the result total is not re-added here.
      (void)server.run(stream, stream);
      stream.flush();  // the trailing report/bye lines have no read after
      completed = true;
      chips = hello.chips;
    } catch (const std::exception& e) {
      // Strict-mode bad frame or a vanished client: this session dies, its
      // siblings never notice. Best effort notice to a peer still there.
      failure = e.what();
      stream << "error - " << e.what() << '\n';
      stream.flush();
    }
  } else {
    stream << "error - " << hello.error << '\n';
    stream.flush();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session_start)
          .count();
  end_session(completed);
  if (completed) {
    chips_tuned_->inc(chips);
    latency_->record(seconds);
    if (options_.log != nullptr) {
      options_.log->emit(
          "serve", "session_complete",
          {obs::LogField::u64("session", id),
           obs::LogField::u64("chips", chips),
           obs::LogField::f64("seconds", seconds)});
    }
  } else if (options_.log != nullptr) {
    options_.log->emit("serve", "session_failed",
                       {obs::LogField::str("reason", failure),
                        obs::LogField::f64("seconds", seconds)});
  }
}

}  // namespace effitest::net
