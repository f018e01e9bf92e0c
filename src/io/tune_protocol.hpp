#pragma once
// Line-oriented stimulus/response protocol for driving TuningSessions from
// an external tester or a replayed response log — the streaming surface of
// `effitest_cli tune` and the `serve_chips` example.
//
// Server -> tester (one line each, space separated):
//
//   effitest-tune-v1 chips=<n> np=<np> nb=<nb> td=<ps>
//   stimulus <chip> <seq> <period> steps <k0> <k1> ... arm <p0> <p1> ...
//   final <chip> <seq> <period> steps <k0> <k1> ...
//   report <chip> iterations=<n> forced=<n> feasible=<0|1> passed=<0|1|->
//          xi=<ps> steps <k0> <k1> ...
//   bye
//
// Tester -> server, one line per answered stimulus:
//
//   response <chip> <seq> <bits>
//
// where <bits> is one '1' (pass) or '0' (fail) character per armed pair of
// the stimulus with that (chip, seq) — exactly one character for a `final`
// line. Sequence numbers are per chip, starting at 0.
//
// Responses may arrive in ANY order — interleaved across chips and even
// shuffled within a chip (a replayed log): the server buffers them by
// (chip, seq) and applies each chip's next expected sequence number as
// soon as it is available. Sessions are pure functions of their responses
// (core/tuner_service.hpp), so the reports are identical for every legal
// ordering of the same response set.
//
// Lines are accepted with either LF or CRLF endings in both modes: a
// trailing '\r' left by std::getline on a DOS/Windows tester stream (or a
// telnet-style TCP client) is stripped before parsing, the same guarantee
// the .bench parser makes for DOS-formatted ISCAS89 files.
//
// Malformed input (strict mode, the default): the first bad line aborts
// the whole run with std::runtime_error. In lenient mode
// (TuneServerOptions::lenient — `effitest_cli tune --lenient`) a bad frame
// attributable to one chip (bad width, bad bits, duplicate/stale seq,
// implausible seq) abandons only that chip: the server emits
//
//   error <chip> <reason>
//
// and keeps serving every other chip, whose reports stay byte-identical
// to an undisturbed run (TuneServerResult::errors says which chips died
// and why). Unattributable garbage — an unparseable line, an out-of-range
// chip id, a response for an already-finished chip — is dropped and
// counted in TuneServerResult::dropped_lines. Two bounds hold in both
// modes (fuzz-driven hardening): a response wider than np is rejected
// before buffering, and a sequence number more than 10^6 ahead of the
// chip's next expected one is rejected as implausible, so hostile input
// cannot grow the out-of-order buffer without bound.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/tuner_service.hpp"

namespace effitest::obs {
class Counter;
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::io {

struct TuneServerOptions {
  /// Abandon individual chips on attributable bad frames instead of
  /// aborting the whole run (see the protocol comment above).
  bool lenient = false;
  /// Per-session backpressure: at most this many chips have an outstanding
  /// stimulus at once. 0 (the default) admits every chip up front — the
  /// historical behavior, whose initial burst is one stimulus line per
  /// chip. With a window W, only W sessions exist at a time: a new chip is
  /// admitted (its TuningSession minted and its first stimulus emitted)
  /// only when another finishes, so a 10k-chip session holds W live
  /// sessions and never floods a slow link. Reports are identical for any
  /// window — sessions are independent and responses for not-yet-admitted
  /// chips simply wait in the (chip, seq) reorder buffer, still bounded by
  /// kMaxPendingWindow semantics.
  std::size_t chip_window = 0;
  /// Live stimulus counter (obs registry), bumped as each stimulus/final
  /// line is emitted — what the serve loop's `status` endpoint reports
  /// mid-session. nullptr: not counted live (TuneServerResult::stimuli is
  /// still the per-run total either way).
  obs::Counter* live_stimuli = nullptr;
  /// Structured event log threaded into every minted TuningSession
  /// (chip_begin / final_test / chip_report events), or nullptr for none.
  obs::StructuredLog* log = nullptr;
};

struct TuneServerResult {
  std::vector<core::ChipReport> reports;  ///< one per chip, in chip order
  std::size_t stimuli = 0;  ///< stimulus + final lines emitted
  /// Per chip: empty = tuned cleanly, otherwise the reason the chip was
  /// abandoned (lenient mode only; its report slot is default-constructed).
  std::vector<std::string> errors;
  /// Unattributable input lines dropped in lenient mode.
  std::size_t dropped_lines = 0;
};

/// The simulated tester population behind `tune --simulate`
/// (TuneServer::run_simulated) and `tune --connect`
/// (net::run_loopback_client): die c is sampled from
/// stats::Rng(parallel::index_seed(seed_base, c)) exactly like run_flow's
/// Monte-Carlo chip loop and answers as a core::SimulatedChip. `problem`
/// must outlive the population.
class SimulatedTesters {
 public:
  SimulatedTesters(const core::Problem& problem, std::size_t chips,
                   std::uint64_t seed_base);

  /// Die `chip`'s answer to a `stimulus` line (pass/fail per armed pair)
  /// or, when `final`, to a `final` line (the one go/no-go bit).
  [[nodiscard]] std::vector<bool> answer(std::size_t chip,
                                         const core::Stimulus& stimulus,
                                         bool final) const;

 private:
  const core::Problem* problem_;
  std::vector<timing::Chip> dies_;
};

/// Response bits in wire form: '1' (pass) or '0' (fail) per entry.
[[nodiscard]] std::string encode_bits(const std::vector<bool>& pass);

/// Streams `chips` per-chip TuningSessions of one shared TunerService over
/// the protocol above. The service must outlive the server.
class TuneServer {
 public:
  TuneServer(const core::TunerService& service, std::size_t chips,
             TuneServerOptions options = {});

  /// Interactive / replay mode: emit stimuli on `out`, consume `response`
  /// lines from `in` (stdin, a pipe, or a replayed — possibly shuffled —
  /// log). Throws std::runtime_error on malformed input or when the
  /// stream ends with chips unfinished — unless lenient (see above).
  [[nodiscard]] TuneServerResult run(std::istream& in, std::ostream& out);

  /// Self-driving mode: every chip is a simulated die sampled exactly like
  /// run_flow's Monte-Carlo loop (seeded
  /// parallel::index_seed(service.monte_carlo_seed_base(), chip)), the
  /// protocol stream still goes to `out`, and the response line every
  /// stimulus received is appended to `response_log` (when non-null) for
  /// later replay. Chips advance round-robin, so the log interleaves them.
  [[nodiscard]] TuneServerResult run_simulated(
      std::ostream& out, std::ostream* response_log = nullptr);

 private:
  const core::TunerService* service_;
  std::size_t chips_;
  TuneServerOptions options_;
};

}  // namespace effitest::io
