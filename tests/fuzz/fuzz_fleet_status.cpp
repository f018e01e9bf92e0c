// Fuzz target: the line parsers of the tuning wire. All of them consume
// peer bytes — parse_worker_status eats whatever a (possibly hostile or
// corrupted) worker answers to a health probe, parse_serving_banner eats a
// spawned child's stdout, parse_hello a tester's first line,
// parse_greeting a server's first reply, and parse_host_port every
// host:port target — and all promise to reject malformed input by
// returning ok=false / an error / nullopt, never by throwing or crashing.
// The whole input, then each of its lines, goes through every parser, so
// one corpus file exercises all of them.

#include <string>

#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "fuzz_driver.hpp"
#include "io/fields.hpp"
#include "net/client.hpp"

namespace {

void parse_line(const std::string& line) {
  (void)effitest::fleet::parse_worker_status(line);
  (void)effitest::fleet::parse_serving_banner(line);
  (void)effitest::net::parse_hello(line);
  (void)effitest::net::parse_greeting(line);
  (void)effitest::io::parse_host_port(line);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  parse_line(text);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      parse_line(text.substr(start));
      break;
    }
    parse_line(text.substr(start, end - start));
    start = end + 1;
  }
  return 0;
}
