#include "net/client.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/test_engine.hpp"
#include "core/tuner_service.hpp"
#include "net/socket.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/rng.hpp"
#include "timing/model.hpp"

namespace effitest::net {

namespace {

std::string encode_bits(const std::vector<bool>& pass) {
  std::string bits(pass.size(), '0');
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (pass[i]) bits[i] = '1';
  }
  return bits;
}

[[noreturn]] void protocol_error(const std::string& line,
                                 const std::string& why) {
  throw std::runtime_error("connect: " + why + " (line: \"" + line + "\")");
}

}  // namespace

ClientResult run_loopback_client(const std::string& host, std::uint16_t port,
                                 const core::Problem& problem,
                                 const ClientOptions& options) {
  ConnectBackoff backoff;
  backoff.retries = options.connect_retries;
  SocketStream stream(connect_with_backoff(host, port, backoff));
  stream << "hello effitest-tune-v1 chips=" << options.chips;
  if (options.window != 0) stream << " window=" << options.window;
  if (options.lenient) stream << " lenient";
  stream << '\n';
  stream.flush();

  ClientResult result;
  std::string line;
  const auto read_line = [&]() -> bool {
    if (!std::getline(stream, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };

  // Greeting: serve effitest-tune-v1 session=<id> seed=<base>. An
  // `error -` line here is the server rejecting the hello.
  if (!read_line()) {
    throw std::runtime_error("connect: server closed before greeting");
  }
  {
    std::istringstream is(line);
    std::string tag, version, session_kv, seed_kv;
    if (!(is >> tag)) protocol_error(line, "empty greeting");
    if (tag == "error") {
      throw std::runtime_error("connect: server rejected session: " + line);
    }
    if (!(is >> version >> session_kv >> seed_kv) || tag != "serve" ||
        version != "effitest-tune-v1" ||
        session_kv.rfind("session=", 0) != 0 ||
        seed_kv.rfind("seed=", 0) != 0) {
      protocol_error(line, "malformed greeting");
    }
    result.session_id = std::stoull(session_kv.substr(8));
    result.seed_base = std::stoull(seed_kv.substr(5));
  }

  // Dies sampled exactly like run_flow's Monte-Carlo loop under the
  // server-supplied base, so the reports match `tune --simulate`.
  const timing::CircuitModel& model = problem.model();
  std::vector<timing::Chip> dies;
  dies.reserve(options.chips);
  timing::SampleWorkspace ws;
  for (std::size_t c = 0; c < options.chips; ++c) {
    stats::Rng rng(parallel::index_seed(result.seed_base, c));
    dies.push_back(model.sample_chip(rng, ws));
  }
  std::vector<core::SimulatedChip> testers;
  testers.reserve(options.chips);
  for (std::size_t c = 0; c < options.chips; ++c) {
    testers.emplace_back(problem, dies[c]);
  }

  // The standard exchange: answer stimulus/final lines until bye. The
  // response is written with plain '\n'; SocketStream flushes pending
  // output before the next blocking read.
  bool saw_header = false;
  while (read_line()) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "bye") {
      return result;
    }
    if (tag == "effitest-tune-v1") {
      saw_header = true;
      continue;
    }
    if (tag == "report") {
      result.report_lines.push_back(line);
      continue;
    }
    if (tag == "error") {
      result.error_lines.push_back(line);
      continue;
    }
    if (tag != "stimulus" && tag != "final") {
      protocol_error(line, "unexpected server line");
    }
    if (!saw_header) protocol_error(line, "stimulus before session header");
    std::size_t chip = 0, seq = 0;
    core::Stimulus stim;
    std::string marker;
    if (!(is >> chip >> seq >> stim.period >> marker) || marker != "steps") {
      protocol_error(line, "malformed stimulus");
    }
    if (chip >= options.chips) protocol_error(line, "chip out of range");
    std::string token;
    bool in_arm = false;
    while (is >> token) {
      if (token == "arm") {
        in_arm = true;
        continue;
      }
      std::istringstream ts(token);
      if (in_arm) {
        std::size_t pair = 0;
        if (!(ts >> pair)) protocol_error(line, "malformed armed pair");
        stim.armed.push_back(pair);
      } else {
        int step = 0;
        if (!(ts >> step)) protocol_error(line, "malformed step");
        stim.steps.push_back(step);
      }
    }
    std::vector<bool> pass;
    if (tag == "final") {
      pass.assign(1, testers[chip].final_test(stim.period, stim.steps));
    } else {
      pass = testers[chip].apply(stim);
    }
    stream << "response " << chip << ' ' << seq << ' ' << encode_bits(pass)
           << '\n';
    ++result.stimuli_answered;
  }
  throw std::runtime_error(
      "connect: server closed the connection before bye");
}

std::string fetch_status(const std::string& host, std::uint16_t port,
                         double timeout_seconds) {
  Socket conn = connect_to(host, port);
  conn.set_io_timeout(timeout_seconds);
  SocketStream stream(std::move(conn));
  // Harmless on a --status-port endpoint: it answers unprompted and never
  // reads, so the same client drives both kinds of status socket.
  stream << "status\n";
  stream.flush();
  std::string line;
  if (!std::getline(stream, line)) {
    throw std::runtime_error("status: server closed without replying");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) {
    throw std::runtime_error("status: empty reply");
  }
  return line;
}

std::string fetch_prometheus(const std::string& host, std::uint16_t port) {
  SocketStream stream(connect_to(host, port));
  stream << "status prometheus\n";
  stream.flush();
  std::string text, line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    text += line;
    text += '\n';
  }
  if (text.empty()) {
    throw std::runtime_error("status: empty prometheus reply");
  }
  return text;
}

}  // namespace effitest::net
