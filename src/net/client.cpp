#include "net/client.hpp"

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/fields.hpp"
#include "io/tune_protocol.hpp"
#include "net/socket.hpp"

namespace effitest::net {

namespace {

/// The unsigned field after `key` in `token`; malformed unless `token`
/// starts with `key`.
io::UnsignedField keyed_field(std::string_view token, std::string_view key) {
  if (token.substr(0, key.size()) != key) return {};
  return io::parse_unsigned(token.substr(key.size()));
}

[[noreturn]] void protocol_error(const std::string& line,
                                 const std::string& why) {
  throw std::runtime_error("connect: " + why + " (line: \"" + line + "\")");
}

}  // namespace

Hello parse_hello(const std::string& line) {
  Hello h;
  const std::vector<std::string_view> words = io::split_words(line);
  if (words.size() < 2 || words[0] != "hello" ||
      words[1] != "effitest-tune-v1") {
    h.error = "expected \"hello effitest-tune-v1 chips=<n>\"";
    return h;
  }
  bool saw_chips = false;
  for (std::size_t i = 2; i < words.size(); ++i) {
    const std::string_view token = words[i];
    if (token == "lenient") {
      h.lenient = true;
      continue;
    }
    const std::size_t eq = token.find('=');
    const std::string_view key = token.substr(0, eq);
    if (eq == std::string_view::npos || (key != "chips" && key != "window")) {
      h.error = "unknown hello option \"" + std::string(token) + "\"";
      return h;
    }
    const io::UnsignedField value = io::parse_unsigned(token.substr(eq + 1));
    if (!value) {
      h.error = "malformed hello option \"" + std::string(token) + "\"";
      return h;
    }
    if (key == "chips") {
      h.chips = value.value;
      saw_chips = true;
    } else {
      h.window = value.value;
    }
  }
  if (!saw_chips || h.chips == 0) {
    h.error = "hello must carry chips=<n> with n >= 1";
  }
  return h;
}

std::optional<Greeting> parse_greeting(const std::string& line) {
  const std::vector<std::string_view> words = io::split_words(line);
  if (words.size() != 4 || words[0] != "serve" ||
      words[1] != "effitest-tune-v1") {
    return std::nullopt;
  }
  const io::UnsignedField session = keyed_field(words[2], "session=");
  const io::UnsignedField seed = keyed_field(words[3], "seed=");
  if (!session || !seed) return std::nullopt;
  return Greeting{session.value, seed.value};
}

ClientResult run_loopback_client(const std::string& host, std::uint16_t port,
                                 const core::Problem& problem,
                                 const ClientOptions& options) {
  SocketStream stream(
      connect_with_backoff(host, port, options.connect_retries));
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
  // output before the next blocking read. A `report <chip>` or `error
  // <chip>` line finishes its chip; a bye before every chip is finished is
  // a truncated session, not a result.
  std::vector<bool> finished(options.chips, false);
  std::size_t unfinished = options.chips;
  const auto finish = [&](const std::vector<std::string_view>& words) {
    const io::UnsignedField chip =
        io::parse_unsigned(words.size() > 1 ? words[1] : std::string_view());
    if (chip && chip.value < options.chips && !finished[chip.value]) {
      finished[chip.value] = true;
      --unfinished;
    }
  };
  bool saw_header = false;
  while (read_line()) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string_view> words = io::split_words(line);
    const std::string_view tag = words.empty() ? std::string_view() : words[0];
    if (tag == "bye") {
      if (unfinished > 0) {
        protocol_error(line, "bye with " + std::to_string(unfinished) +
                                 " of " + std::to_string(options.chips) +
                                 " chip(s) neither reported nor abandoned");
      }
      return result;
    }
    if (tag == "effitest-tune-v1") {
      saw_header = true;
      continue;
    }
    if (tag == "report") {
      result.report_lines.push_back(line);
      finish(words);
      continue;
    }
    if (tag == "error") {
      result.error_lines.push_back(line);
      finish(words);
      continue;
    }
    if (tag != "stimulus" && tag != "final") {
      protocol_error(line, "unexpected server line");
    }
    if (!saw_header) protocol_error(line, "stimulus before session header");
    // <tag> <chip> <seq> <period> steps <k>... [arm <pair>...]
    if (words.size() < 5 || words[4] != "steps") {
      protocol_error(line, "malformed stimulus");
    }
    const io::UnsignedField chip_field = io::parse_unsigned(words[1]);
    const io::UnsignedField seq = io::parse_unsigned(words[2]);
    const std::optional<double> period = io::parse_finite_double(words[3]);
    if (!chip_field || !seq || !period) {
      protocol_error(line, "malformed stimulus");
    }
    const std::size_t chip = chip_field.value;
    if (chip >= options.chips) protocol_error(line, "chip out of range");
    core::Stimulus stim;
    stim.period = *period;
    bool in_arm = false;
    for (std::size_t w = 5; w < words.size(); ++w) {
      if (words[w] == "arm") {
        in_arm = true;
        continue;
      }
      if (in_arm) {
        const io::UnsignedField pair = io::parse_unsigned(words[w]);
        if (!pair) protocol_error(line, "malformed armed pair");
        stim.armed.push_back(pair.value);
      } else {
        const io::UnsignedField step = io::parse_unsigned(
            words[w], static_cast<std::uint64_t>(
                          std::numeric_limits<int>::max()));
        if (!step) protocol_error(line, "malformed step");
        stim.steps.push_back(static_cast<int>(step.value));
      }
    }
    stream << "response " << chip << ' ' << seq.value << ' '
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
