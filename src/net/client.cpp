#include "net/client.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/tune_protocol.hpp"
#include "net/socket.hpp"

namespace effitest::net {

namespace {

/// The digits after `key` in `token`; nullopt unless every byte after the
/// key is a decimal digit and the value fits in 64 bits.
std::optional<std::uint64_t> parse_field(const std::string& token,
                                         const std::string& key) {
  if (token.rfind(key, 0) != 0) return std::nullopt;
  const char* first = token.data() + key.size();
  const char* last = token.data() + token.size();
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

[[noreturn]] void protocol_error(const std::string& line,
                                 const std::string& why) {
  throw std::runtime_error("connect: " + why + " (line: \"" + line + "\")");
}

}  // namespace

std::optional<Greeting> parse_greeting(const std::string& line) {
  std::istringstream is(line);
  std::string tag, version, session_kv, seed_kv, extra;
  if (!(is >> tag >> version >> session_kv >> seed_kv) || (is >> extra) ||
      tag != "serve" || version != "effitest-tune-v1") {
    return std::nullopt;
  }
  const auto session = parse_field(session_kv, "session=");
  const auto seed = parse_field(seed_kv, "seed=");
  if (!session || !seed) return std::nullopt;
  return Greeting{*session, *seed};
}

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
  if (line.rfind("error ", 0) == 0) {
    throw std::runtime_error("connect: server rejected session: " + line);
  }
  const std::optional<Greeting> greeting = parse_greeting(line);
  if (!greeting) protocol_error(line, "malformed greeting");
  result.session_id = greeting->session_id;
  result.seed_base = greeting->seed_base;
  // Dies sampled under the server-supplied base, so the reports match
  // `tune --simulate`.
  const io::SimulatedTesters testers(problem, options.chips,
                                     result.seed_base);

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
    stream << "response " << chip << ' ' << seq << ' '
           << io::encode_bits(testers.answer(chip, stim, tag == "final"))
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
