#include "net/serve.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <utility>

#include "io/tune_protocol.hpp"
#include "obs/log.hpp"

namespace effitest::net {

namespace {

/// Parsed `hello effitest-tune-v1 chips=<n> [lenient] [window=<w>]`.
/// `error` non-empty on a malformed or out-of-policy hello.
struct Hello {
  std::size_t chips = 0;
  std::size_t window = 0;
  bool lenient = false;
  std::string error;
};

Hello parse_hello(const std::string& line, const ServeOptions& options) {
  Hello h;
  std::istringstream is(line);
  std::string tag, version, token;
  if (!(is >> tag >> version) || tag != "hello" ||
      version != "effitest-tune-v1") {
    h.error = "expected \"hello effitest-tune-v1 chips=<n>\"";
    return h;
  }
  bool saw_chips = false;
  while (is >> token) {
    if (token == "lenient") {
      h.lenient = true;
      continue;
    }
    const auto eq = token.find('=');
    const std::string key = token.substr(0, eq);
    std::size_t value = 0;
    if (eq != std::string::npos) {
      std::istringstream vs(token.substr(eq + 1));
      if (!(vs >> value) || !vs.eof()) {
        h.error = "malformed hello option \"" + token + "\"";
        return h;
      }
    }
    if (key == "chips" && eq != std::string::npos) {
      h.chips = value;
      saw_chips = true;
    } else if (key == "window" && eq != std::string::npos) {
      h.window = value;
    } else {
      h.error = "unknown hello option \"" + token + "\"";
      return h;
    }
  }
  if (!saw_chips || h.chips == 0) {
    h.error = "hello must carry chips=<n> with n >= 1";
    return h;
  }
  if (h.chips > options.max_chips_per_session) {
    h.error = "chips=" + std::to_string(h.chips) +
              " exceeds this server's per-session limit of " +
              std::to_string(options.max_chips_per_session);
    return h;
  }
  // The server-side window caps the client's request; a client that asked
  // for none gets the server's default.
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
    hello = parse_hello(line, options_);
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
