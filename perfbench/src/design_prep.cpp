// design_prep: the design desk. Provision, calibrate and prepare the two
// large-np Table-1 designs (mem_ctrl, np=3016; pci_bridge32, np=3472,
// nb=32), then run the analytic post-tuning analysis and yield curve of
// both. No dies are tuned.
//
// Order of a run:
//   1. kSetupReps provisions of both designs; setup_s is the median of
//      the per-rep sum, and the last rep is kept.
//   2. The timed window: design passes back to back. A pass re-prepares
//      both designs with their resolved T_d and analyses them
//      (analyze_tuned_period + yield_curve). The pass, not the analysis
//      alone, is the timed op: measured interleaved on a shared 4-vCPU
//      VM, analysis-only ops spread 33% between 20 s windows and passes
//      9%. analytic_s is still reported in the summary and per layer.
//   3. Correctness, untimed: every pass's candidate counts, tuned
//      mean/sigma and artifact sizes are identical, and each tuned mean is
//      conservative
//      against the exact per-die Monte-Carlo reference (DESIGN.md §16:
//      Clark's max biases it up). The 2% closeness bound the repository
//      pins holds for s9234/s13207/s15850 only; pci_bridge32 reaches ~2%.
//   A traced run also times the prepare pieces on the kept designs.

#include <cmath>
#include <cstring>
#include <iostream>

#include "analytic/engine.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace effitest;

constexpr std::array<const char*, 2> kDesigns = {"mem_ctrl", "pci_bridge32"};
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kCurvePoints = 1024;
constexpr std::size_t kMcDies = 200;
/// Monte-Carlo standard errors the analytic mean may sit below the
/// reference before "biased up" counts as broken.
constexpr double kMcStandardErrors = 3.0;

/// What one pass over one design must reproduce on every pass.
struct Fingerprint {
  std::size_t candidates = 0;
  double tuned_mean = 0.0;
  double tuned_sigma = 0.0;
  std::size_t tested = 0;
  std::size_t batches = 0;
  std::size_t hold = 0;

  bool operator==(const Fingerprint& o) const {
    return candidates == o.candidates &&
           std::memcmp(&tuned_mean, &o.tuned_mean, sizeof(double)) == 0 &&
           std::memcmp(&tuned_sigma, &o.tuned_sigma, sizeof(double)) == 0 &&
           tested == o.tested && batches == o.batches && hold == o.hold;
  }
};

struct Window {
  explicit Window(SpanRecorder recorder) : spans(std::move(recorder)) {}
  std::vector<double> latency_ms;   ///< per design pass
  std::vector<double> analytic_ms;  ///< analysis + yield curve, per pass
  std::vector<std::array<Fingerprint, kDesigns.size()>> prints;
  std::uint64_t errors = 0;
  double wall_s = 0.0;
  SpanRecorder spans;
};

/// One design pass: re-prepare each design through a TunerService that is
/// handed the resolved T_d (so it does not recalibrate), then analyse it.
void run_pass(const std::vector<Provisioned>& designs,
              const core::FlowOptions& options, std::uint64_t op,
              Window& win) {
  SpanRecorder& spans = win.spans;
  constexpr Layer kRoot = Layer::kDesignPass;
  const Clock::time_point t0 = Clock::now();
  double analytic_s = 0.0;
  std::array<Fingerprint, kDesigns.size()> prints{};
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const core::Problem& problem = designs[d].circuit->problem;
    core::FlowOptions redrive = options;
    redrive.designated_period = designs[d].service->designated_period();
    const core::TunerService service =
        spans.time(Layer::kPrepare, kRoot, op, [&] {
          return core::TunerService(problem, redrive);
        });
    const Clock::time_point a0 = Clock::now();
    const analytic::TunedPeriodAnalysis a =
        spans.time(Layer::kAnalyze, kRoot, op,
                   [&] { return analytic::analyze_tuned_period(problem); });
    const double lo = a.tuned.mean - 4.0 * a.tuned.sigma();
    const double hi = a.untuned.mean + 4.0 * a.untuned.sigma();
    const auto curve = spans.time(Layer::kYieldCurve, kRoot, op, [&] {
      return a.yield_curve(lo, hi, kCurvePoints);
    });
    analytic_s += seconds_between(a0, Clock::now());
    if (curve.size() != kCurvePoints || !(curve.back().second >= 0.0)) {
      ++win.errors;
    }
    const core::FlowArtifacts& art = service.artifacts();
    prints[d] = {a.candidates.size(), a.tuned.mean,      a.tuned.sigma(),
                 art.tested.size(),   art.batches.size(), art.hold.size()};
  }
  const Clock::time_point t1 = Clock::now();
  win.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
  win.analytic_ms.push_back(analytic_s * 1e3);
  win.prints.push_back(prints);
  spans.add(kRoot, kRoot, op, t0, t1);
}

/// Closed loop, one pass at a time; each pass uses every worker inside
/// prepare. Starts passes until `seconds` have gone by.
Window timed_window(const std::vector<Provisioned>& designs,
                    const core::FlowOptions& options, double seconds,
                    bool traced, Clock::time_point epoch) {
  Window win(SpanRecorder(traced, epoch, 2));
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
    try {
      run_pass(designs, options, op, win);
    } catch (const std::exception& e) {
      ++win.errors;
      std::cerr << "perfbench: design pass " << op << ": " << e.what()
                << "\n";
    }
  }
  win.wall_s = seconds_between(start, Clock::now());
  return win;
}

/// Step 3: identical fingerprints on every op, and the analytic tuned
/// mean not below the exact Monte-Carlo reference.
void check(const std::vector<Provisioned>& designs, const Window& win,
           const Args& args, Result& result) {
  result.attempted += win.prints.size() + win.errors;
  if (win.errors != 0) result.fail(win.errors, "analysis failed");
  std::uint64_t mismatched = 0;
  for (const auto& p : win.prints) {
    if (!(p == win.prints.front())) ++mismatched;
  }
  if (mismatched != 0) {
    result.fail(mismatched, "design passes differ from the first");
  }
  for (std::size_t d = 0; d < designs.size(); ++d) {
    analytic::McTunedOptions mopts;
    mopts.chips = kMcDies;
    mopts.seed = args.seed;
    mopts.threads = args.workers;
    const analytic::McTunedPeriod mc =
        analytic::mc_tuned_period(designs[d].circuit->problem, mopts);
    ++result.attempted;
    if (win.prints.empty()) continue;
    const double analytic_mean = win.prints.front()[d].tuned_mean;
    const double se = mc.sigma / std::sqrt(static_cast<double>(kMcDies));
    if (!(analytic_mean >= mc.mean - kMcStandardErrors * se)) {
      result.fail(1, std::string(kDesigns[d]) + ": analytic tuned mean " +
                         std::to_string(analytic_mean) + " vs MC " +
                         std::to_string(mc.mean));
    }
  }
}

}  // namespace

Result run_design_prep(const Args& args) {
  Result result;
  const Clock::time_point epoch = Clock::now();
  core::FlowOptions options;
  options.seed = args.seed;
  options.threads = args.workers;

  SpanRecorder setup_spans(args.trace, epoch, kSetupReps);
  std::vector<SetupTimes> reps;  // per rep, summed over the designs
  std::vector<Provisioned> designs;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    designs.clear();  // release the previous rep before building anew
    SetupTimes sum;
    for (const char* name : kDesigns) {
      designs.push_back(provision(name, options, setup_spans, r));
      const SetupTimes& t = designs.back().times;
      sum.generate_s += t.generate_s;
      sum.model_build_s += t.model_build_s;
      sum.calibrate_s += t.calibrate_s;
      sum.prepare_s += t.prepare_s;
      sum.total_s += t.total_s;
    }
    reps.push_back(sum);
  }

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Window timed = timed_window(designs, options, untraced_s, false, epoch);
  check(designs, timed, args, result);

  std::vector<double> setup_totals;
  for (const SetupTimes& s : reps) setup_totals.push_back(s.total_s);
  EndToEnd e2e;
  e2e.setup_s = quantile(setup_totals, 0.5);
  e2e.throughput_per_s =
      static_cast<double>(timed.latency_ms.size()) / timed.wall_s;
  e2e.latency_p50_ms = quantile(timed.latency_ms, 0.50);
  e2e.latency_p90_ms = quantile(timed.latency_ms, 0.90);
  result.summary = {
      {"design_pass_s", e2e.latency_p50_ms / 1e3, "s"},
      {"analytic_s", quantile(timed.analytic_ms, 0.5) / 1e3, "s"},
      {"passes_timed", static_cast<double>(timed.latency_ms.size()), "count"},
  };
  for (std::size_t d = 0; d < designs.size() && !timed.prints.empty(); ++d) {
    const Fingerprint& f = timed.prints.front()[d];
    const std::string name = kDesigns[d];
    result.summary.push_back(
        {name + ".candidates", static_cast<double>(f.candidates), "count"});
    result.summary.push_back({name + ".tuned_mean_ps", f.tuned_mean, "ps"});
    result.summary.push_back({name + ".tuned_sigma_ps", f.tuned_sigma, "ps"});
  }

  if (args.trace) {
    const Window traced = timed_window(designs, options,
                                       args.seconds - untraced_s, true, epoch);
    check(designs, traced, args, result);
    add_setup_layers(result, reps);
    PreparePieces sum;
    for (const Provisioned& d : designs) {
      const PreparePieces p = time_prepare_pieces(d, options);
      sum.max_covariance_s += p.max_covariance_s;
      sum.select_paths_s += p.select_paths_s;
      sum.build_batches_s += p.build_batches_s;
      sum.prediction_gain_s += p.prediction_gain_s;
      sum.hold_bounds_s += p.hold_bounds_s;
      sum.unattributed_s += p.unattributed_s;
      sum.groups += p.groups;
      sum.tested_paths += p.tested_paths;
      sum.batches += p.batches;
      sum.hold_constraints += p.hold_constraints;
    }
    add_prepare_pieces(result, sum);

    const SpanRecorder& s = traced.spans;
    const double ops = static_cast<double>(traced.latency_ms.size());
    auto& pl = result.per_layer;
    pl.push_back({"analytic.analyze_s", s.seconds(Layer::kAnalyze) / ops, "s"});
    pl.push_back(
        {"analytic.yield_curve_s", s.seconds(Layer::kYieldCurve) / ops, "s"});
    std::size_t candidates = 0;
    if (!traced.prints.empty()) {
      for (const Fingerprint& f : traced.prints.front()) {
        candidates += f.candidates;
      }
    }
    pl.push_back({"analytic.candidates", double(candidates), "count"});
    const double traced_tput = ops / traced.wall_s;
    pl.push_back({"trace.overhead_pct",
                  (e2e.throughput_per_s / traced_tput - 1.0) * 100.0, "%"});

    setup_spans.merge(traced.spans);
    setup_spans.write(args.trace_file, args.workload);
  }
  add_end_to_end(result, e2e);
  return result;
}

}  // namespace perfbench
