#include "io/tune_protocol.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/fields.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/deterministic_for.hpp"
#include "timing/model.hpp"

namespace effitest::io {

namespace {

using core::ChipReport;
using core::SessionPhase;
using core::Stimulus;
using core::TuningSession;

/// Out-of-order window: a response whose seq is this far beyond the chip's
/// next expected one cannot belong to any stimulus the server will ever
/// issue soon enough to matter (sessions are capped at
/// TestOptions::max_iterations_per_batch per batch) — rejecting it keeps a
/// hostile stream from growing the reorder buffer without bound.
constexpr std::size_t kMaxPendingWindow = 1'000'000;

/// One chip's protocol-side bookkeeping around its TuningSession. The
/// session is minted lazily on admission (TuneServerOptions::chip_window):
/// an unadmitted chip holds no session state at all, so a bounded window
/// over many thousands of chips keeps per-session memory flat.
struct ChipSlot {
  std::optional<TuningSession> session;
  std::size_t next_seq = 0;  ///< seq of the outstanding stimulus
  bool started = false;      ///< admitted: session minted, stimulus emitted
  bool finished = false;
  bool errored = false;  ///< abandoned by a lenient-mode bad frame
};

/// Shared emit/advance machinery of both server modes.
class Exchange {
 public:
  Exchange(const core::TunerService& service, std::size_t chips,
           const TuneServerOptions& options, std::ostream& out)
      : service_(&service),
        out_(&out),
        slots_(chips),
        window_(options.chip_window == 0 ? chips
                                         : std::min(options.chip_window, chips)),
        live_stimuli_(options.live_stimuli),
        log_(options.log),
        unfinished_(chips),
        errors_(chips) {
    const core::Problem& problem = service.problem();
    *out_ << "effitest-tune-v1 chips=" << chips
          << " np=" << problem.model().num_pairs()
          << " nb=" << problem.num_buffers()
          << " td=" << json::format_double(service.designated_period())
          << '\n';
    refill();
  }

  [[nodiscard]] std::size_t unfinished() const { return unfinished_; }
  [[nodiscard]] std::size_t chips() const { return slots_.size(); }
  [[nodiscard]] std::size_t stimuli() const { return stimuli_; }
  [[nodiscard]] ChipSlot& slot(std::size_t c) { return slots_[c]; }

  /// The outstanding stimulus of an unfinished, admitted chip (idempotent).
  [[nodiscard]] const Stimulus& outstanding(std::size_t c) {
    return slots_[c].session->next_stimulus();
  }
  [[nodiscard]] bool is_final(std::size_t c) const {
    return slots_[c].session->phase() == SessionPhase::kFinalTest;
  }

  /// Expected response width of the outstanding stimulus.
  [[nodiscard]] std::size_t expected_bits(std::size_t c) {
    return is_final(c) ? 1 : outstanding(c).armed.size();
  }

  /// Answer chip c's outstanding stimulus and emit its next one (or its
  /// report when the session completes, freeing a window slot).
  void apply(std::size_t c, const std::vector<bool>& pass) {
    slots_[c].session->record_response(pass);
    ++slots_[c].next_seq;
    emit_next(c);
    if (slots_[c].finished) {
      --active_;
      refill();
    }
  }

  /// Abandon an unfinished chip (lenient mode): emit an `error` line, mark
  /// the chip done, and remember why. Its session is left mid-flight; its
  /// report slot comes back default-constructed. The freed window slot
  /// admits the next chip (unless admission is closed — EOF teardown).
  void abandon(std::size_t c, const std::string& reason) {
    ChipSlot& s = slots_[c];
    if (s.finished) return;
    const bool was_active = s.started;
    s.finished = true;
    s.errored = true;
    errors_[c] = reason;
    --unfinished_;
    *out_ << "error " << c << ' ' << reason << '\n';
    if (was_active) {
      --active_;
      refill();
    }
  }

  /// Stop admitting new chips (the response stream ended): unstarted chips
  /// are abandoned by the caller without ever emitting a stimulus.
  void close_admission() { admitting_ = false; }

  /// Chips admitted since the last call — the caller must drain any
  /// responses already buffered for them.
  [[nodiscard]] std::vector<std::size_t> take_admitted() {
    return std::exchange(admitted_, {});
  }

  [[nodiscard]] std::vector<ChipReport> take_reports() {
    std::vector<ChipReport> reports;
    reports.reserve(slots_.size());
    for (ChipSlot& s : slots_) {
      reports.push_back(s.errored || !s.session.has_value()
                            ? ChipReport{}
                            : s.session->take_report());
    }
    return reports;
  }

  [[nodiscard]] std::vector<std::string> take_errors() {
    return std::move(errors_);
  }

 private:
  /// Admit chips until `window_` sessions are live (or none remain). A
  /// freshly admitted session normally emits its first stimulus; the rare
  /// chip that is born Done (report emitted immediately) does not occupy a
  /// slot, so the loop keeps the window full without recursing.
  void refill() {
    while (admitting_ && next_unstarted_ < slots_.size() &&
           active_ < window_) {
      const std::size_t c = next_unstarted_++;
      ChipSlot& s = slots_[c];
      s.started = true;
      core::SessionOptions sopts;
      sopts.log = log_;
      sopts.chip = c;
      s.session.emplace(service_->begin_chip(sopts));
      emit_next(c);
      if (!s.finished) ++active_;
      admitted_.push_back(c);
    }
  }

  void emit_next(std::size_t c) {
    ChipSlot& s = slots_[c];
    if (s.session->phase() == SessionPhase::kDone) {
      const ChipReport& r = s.session->report();
      *out_ << "report " << c << " iterations=" << r.test.iterations
            << " forced=" << r.test.forced
            << " feasible=" << (r.config.feasible ? 1 : 0) << " passed="
            << (r.passed.has_value() ? (*r.passed ? "1" : "0") : "-")
            << " xi=" << json::format_double(r.config.xi) << " steps";
      for (int k : r.config.steps) *out_ << ' ' << k;
      *out_ << '\n';
      s.finished = true;
      --unfinished_;
      return;
    }
    const bool final_phase = is_final(c);
    const Stimulus& stim = s.session->next_stimulus();
    *out_ << (final_phase ? "final " : "stimulus ") << c << ' ' << s.next_seq
          << ' ' << json::format_double(stim.period) << " steps";
    for (int k : stim.steps) *out_ << ' ' << k;
    if (!final_phase) {
      *out_ << " arm";
      for (std::size_t p : stim.armed) *out_ << ' ' << p;
    }
    *out_ << '\n';
    ++stimuli_;
    if (live_stimuli_ != nullptr) live_stimuli_->inc();
  }

  const core::TunerService* service_;
  std::ostream* out_;
  std::vector<ChipSlot> slots_;
  std::size_t window_ = 0;           ///< live-session bound (== chips: off)
  obs::Counter* live_stimuli_ = nullptr;
  obs::StructuredLog* log_ = nullptr;
  std::size_t next_unstarted_ = 0;   ///< chips [0, this) have been admitted
  std::size_t active_ = 0;           ///< started && !finished
  bool admitting_ = true;
  std::vector<std::size_t> admitted_;  ///< since last take_admitted()
  std::size_t unfinished_ = 0;
  std::size_t stimuli_ = 0;
  std::vector<std::string> errors_;  ///< per chip; empty = clean
};

std::vector<bool> decode_bits(const std::string& bits) {
  std::vector<bool> pass(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != '0' && bits[i] != '1') {
      throw std::runtime_error("tune: response bits must be 0/1, got \"" +
                               bits + "\"");
    }
    pass[i] = bits[i] == '1';
  }
  return pass;
}

}  // namespace

SimulatedTesters::SimulatedTesters(const core::Problem& problem,
                                   std::size_t chips, std::uint64_t seed_base)
    : problem_(&problem) {
  dies_.reserve(chips);
  timing::SampleWorkspace ws;
  for (std::size_t c = 0; c < chips; ++c) {
    stats::Rng rng(parallel::index_seed(seed_base, c));
    dies_.push_back(problem.model().sample_chip(rng, ws));
  }
}

std::vector<bool> SimulatedTesters::answer(std::size_t chip,
                                           const core::Stimulus& stimulus,
                                           bool final) const {
  core::SimulatedChip tester(*problem_, dies_.at(chip));
  if (final) return {tester.final_test(stimulus.period, stimulus.steps)};
  return tester.apply(stimulus);
}

std::string encode_bits(const std::vector<bool>& pass) {
  std::string bits(pass.size(), '0');
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (pass[i]) bits[i] = '1';
  }
  return bits;
}

TuneServer::TuneServer(const core::TunerService& service, std::size_t chips,
                       TuneServerOptions options)
    : service_(&service), chips_(chips), options_(options) {}

TuneServerResult TuneServer::run(std::istream& in, std::ostream& out) {
  Exchange exchange(*service_, chips_, options_, out);
  const bool lenient = options_.lenient;
  // No legal response is ever wider than np (a final line carries one bit),
  // so anything wider is rejected before it can occupy the reorder buffer.
  const std::size_t max_bits =
      std::max<std::size_t>(service_->problem().model().num_pairs(), 1);
  TuneServerResult result;

  // Buffered out-of-order responses by (chip, seq).
  std::map<std::pair<std::size_t, std::size_t>, std::string> pending;

  // Drain one admitted chip's queue as far as buffered responses allow.
  const auto drain_chip = [&](std::size_t chip) {
    while (exchange.slot(chip).started && !exchange.slot(chip).finished) {
      const auto it =
          pending.find(std::make_pair(chip, exchange.slot(chip).next_seq));
      if (it == pending.end()) break;
      if (it->second.size() != exchange.expected_bits(chip)) {
        const std::string reason =
            "tune: response width " + std::to_string(it->second.size()) +
            " does not match stimulus for chip " + std::to_string(chip) +
            " seq " + std::to_string(it->first.second);
        pending.erase(it);
        if (!lenient) throw std::runtime_error(reason);
        exchange.abandon(chip, reason);
        break;
      }
      std::vector<bool> pass;
      try {
        pass = decode_bits(it->second);
      } catch (const std::runtime_error& e) {
        if (!lenient) throw;
        pending.erase(it);
        exchange.abandon(chip, e.what());
        break;
      }
      pending.erase(it);
      exchange.apply(chip, pass);
    }
  };
  // A finished chip frees a window slot: freshly admitted chips may
  // already have responses waiting in the reorder buffer (a replayed log),
  // and draining those can cascade into further admissions.
  const auto drain_admitted = [&] {
    std::vector<std::size_t> fresh;
    while (!(fresh = exchange.take_admitted()).empty()) {
      for (const std::size_t c : fresh) drain_chip(c);
    }
  };

  // Consume one response line; early returns mirror the historical
  // `continue`s (any admissions they trigger are drained by the caller).
  const auto process_line = [&](const std::string& line) {
    // response <chip> <seq> <bits>
    const std::vector<std::string_view> words = split_words(line);
    const bool framed = words.size() == 4 && words[0] == "response";
    const UnsignedField chip_field =
        framed ? parse_unsigned(words[1]) : UnsignedField{};
    const UnsignedField seq_field =
        framed ? parse_unsigned(words[2]) : UnsignedField{};
    if (!chip_field || !seq_field) {
      if (!lenient) {
        throw std::runtime_error("tune: malformed response line \"" + line +
                                 "\"");
      }
      ++result.dropped_lines;  // attributable to no chip — drop it
      return;
    }
    const std::size_t chip = chip_field.value;
    const std::size_t seq = seq_field.value;
    const std::string bits(words[3]);
    if (chip >= exchange.chips()) {
      if (!lenient) {
        throw std::runtime_error("tune: response for unknown chip " +
                                 std::to_string(chip));
      }
      ++result.dropped_lines;
      return;
    }
    // From here a bad frame is attributable: in lenient mode it abandons
    // exactly this chip and the run keeps serving the others.
    const auto bad_frame = [&](const std::string& reason) {
      if (!lenient) throw std::runtime_error(reason);
      exchange.abandon(chip, reason);
    };
    if (exchange.slot(chip).finished) {
      if (!lenient) {
        throw std::runtime_error("tune: duplicate/stale response for chip " +
                                 std::to_string(chip) + " seq " +
                                 std::to_string(seq));
      }
      ++result.dropped_lines;  // the chip's report (or error) already stands
      return;
    }
    if (bits.size() > max_bits) {
      bad_frame("tune: response width " + std::to_string(bits.size()) +
                " for chip " + std::to_string(chip) +
                " exceeds the protocol maximum np=" +
                std::to_string(max_bits));
      return;
    }
    if (seq >= exchange.slot(chip).next_seq + kMaxPendingWindow) {
      bad_frame("tune: implausible sequence number " + std::to_string(seq) +
                " for chip " + std::to_string(chip) + " (next expected " +
                std::to_string(exchange.slot(chip).next_seq) + ")");
      return;
    }
    if (seq < exchange.slot(chip).next_seq ||
        !pending.emplace(std::make_pair(chip, seq), bits).second) {
      bad_frame("tune: duplicate/stale response for chip " +
                std::to_string(chip) + " seq " + std::to_string(seq));
      return;
    }
    drain_chip(chip);
  };

  std::string line;
  while (exchange.unfinished() > 0) {
    if (!std::getline(in, line)) {
      if (!lenient) {
        throw std::runtime_error(
            "tune: response stream ended with " +
            std::to_string(exchange.unfinished()) + " chip(s) unfinished");
      }
      // No new chips past this point: unstarted ones are abandoned without
      // ever emitting a stimulus nobody will answer.
      exchange.close_admission();
      for (std::size_t c = 0; c < exchange.chips(); ++c) {
        if (!exchange.slot(c).finished) {
          exchange.abandon(
              c, "tune: response stream ended before this chip finished");
        }
      }
      break;
    }
    // CRLF tolerance: a DOS/telnet-style client terminates every line with
    // \r\n and getline leaves the \r behind — strip it in BOTH modes, or
    // every frame such a client sends is rejected as malformed.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    process_line(line);
    drain_admitted();
  }
  if (!pending.empty()) {
    if (!lenient) {
      throw std::runtime_error(
          "tune: " + std::to_string(pending.size()) +
          " response(s) reference stimuli that were never issued");
    }
    // Leftovers can only reference finished/abandoned chips here.
    result.dropped_lines += pending.size();
  }
  out << "bye\n";
  result.stimuli = exchange.stimuli();
  result.reports = exchange.take_reports();
  result.errors = exchange.take_errors();
  return result;
}

TuneServerResult TuneServer::run_simulated(std::ostream& out,
                                           std::ostream* response_log) {
  const SimulatedTesters testers(service_->problem(), chips_,
                                 service_->monte_carlo_seed_base());
  Exchange exchange(*service_, chips_, options_, out);
  // Round-robin: one stimulus/response exchange per unfinished chip per
  // sweep, so a logged session interleaves chips (the interesting replay
  // case). With a chip window only admitted chips participate; finishing
  // one admits the next (inside apply), which joins the rotation.
  while (exchange.unfinished() > 0) {
    for (std::size_t c = 0; c < chips_; ++c) {
      if (!exchange.slot(c).started || exchange.slot(c).finished) continue;
      const std::vector<bool> pass =
          testers.answer(c, exchange.outstanding(c), exchange.is_final(c));
      if (response_log != nullptr) {
        *response_log << "response " << c << ' ' << exchange.slot(c).next_seq
                      << ' ' << encode_bits(pass) << '\n';
      }
      exchange.apply(c, pass);
    }
  }
  out << "bye\n";
  TuneServerResult result;
  result.stimuli = exchange.stimuli();
  result.reports = exchange.take_reports();
  result.errors = exchange.take_errors();
  return result;
}

}  // namespace effitest::io
