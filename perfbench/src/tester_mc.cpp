// tester_mc: the tester floor. One TunerService on s38584, then a closed
// loop of Monte-Carlo dies on `workers` threads, each die driven through
// begin_chip -> next_stimulus / SimulatedChip::apply / record_response ->
// final test, followed by the yield evaluation run_flow also makes.
//
// Order of a run:
//   1. kSetupReps full provisions (generate, model, calibrate, prepare);
//      setup_s is their median and the last one is kept.
//   2. Correctness, untimed: this file's driver loop over kCheckDies dies
//      on all workers must reproduce core::run_flow's t_a, r_a, y_t, y_i,
//      forced and infeasible counts bit for bit (run_flow on one thread).
//      Both re-drive the prepared artifacts with the resolved T_d, so
//      neither recalibrates nor re-prepares. These dies are also the
//      warm-up.
//   3. The timed window. A traced run splits it: first half untraced,
//      second half traced, and reports the throughput difference as the
//      tracing overhead.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "core/configurator.hpp"
#include "core/test_engine.hpp"
#include "core/yield.hpp"
#include "parallel/deterministic_for.hpp"

namespace perfbench {
namespace {

using namespace effitest;

constexpr const char* kCircuit = "s38584";
constexpr std::size_t kSetupReps = 3;
constexpr std::uint64_t kCheckDies = 1000;
/// Dies per worker whose spans go to the trace file.
constexpr std::uint64_t kKeptOps = 16;

/// Integer tallies of a die stream: sums of integers, so identical for
/// any worker count and any completion order.
struct Tally {
  std::uint64_t dies = 0;
  std::uint64_t iter_sum = 0;
  std::uint64_t forced = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t pass_proposed = 0;
  std::uint64_t pass_ideal = 0;
  std::uint64_t pass_untuned = 0;
  std::uint64_t stimuli = 0;
  std::uint64_t armed = 0;
  std::uint64_t allocations = 0;
  std::uint64_t errors = 0;

  void add(const Tally& o) {
    dies += o.dies;
    iter_sum += o.iter_sum;
    forced += o.forced;
    infeasible += o.infeasible;
    pass_proposed += o.pass_proposed;
    pass_ideal += o.pass_ideal;
    pass_untuned += o.pass_untuned;
    stimuli += o.stimuli;
    armed += o.armed;
    allocations += o.allocations;
    errors += o.errors;
  }
};

struct WorkerOut {
  explicit WorkerOut(SpanRecorder recorder) : spans(std::move(recorder)) {}
  Tally tally;
  std::vector<double> latency_ms;  ///< begin_chip -> report, per die
  SpanRecorder spans;
  Clock::time_point last_end{};
};

/// One die through the whole per-chip loop. Returns false when the report
/// is inconsistent with what the driver observed.
bool run_die(const core::TunerService& service, std::uint64_t seed_base,
             std::uint64_t c, timing::SampleWorkspace& ws, WorkerOut& out) {
  const core::Problem& problem = service.problem();
  SpanRecorder& spans = out.spans;
  const bool traced = spans.enabled();
  const Clock::time_point die0 = Clock::now();
  const std::uint64_t allocs0 = thread_allocations();
  constexpr Layer kRoot = Layer::kChip;

  stats::Rng rng(parallel::index_seed(seed_base, c));
  const timing::Chip chip = spans.time(Layer::kSampleChip, kRoot, c, [&] {
    return problem.model().sample_chip(rng, ws);
  });
  core::SimulatedChip tester(problem, chip);

  const Clock::time_point t_begin = Clock::now();
  core::TuningSession session = service.begin_chip();
  std::uint64_t stimuli = 0;
  while (session.phase() != core::SessionPhase::kDone) {
    if (session.phase() == core::SessionPhase::kTest) {
      const core::Stimulus& s =
          spans.time(Layer::kNextStimulus, kRoot, c,
                     [&]() -> const core::Stimulus& {
                       return session.next_stimulus();
                     });
      ++stimuli;
      out.tally.armed += s.armed.size();
      const std::vector<bool> bits = spans.time(
          Layer::kChipApply, kRoot, c, [&] { return tester.apply(s); });
      if (traced) {
        const Clock::time_point t0 = Clock::now();
        session.record_response(bits);
        spans.add(session.phase() == core::SessionPhase::kTest
                      ? Layer::kRecordResponse
                      : Layer::kPredictConfigure,
                  kRoot, c, t0, Clock::now());
      } else {
        session.record_response(bits);
      }
    } else {
      spans.time(Layer::kFinalTest, kRoot, c, [&] {
        const core::Stimulus& s = session.next_stimulus();
        session.record_final(tester.final_test(s.period, s.steps));
      });
    }
  }
  const Clock::time_point t_report = Clock::now();
  out.latency_ms.push_back(seconds_between(t_begin, t_report) * 1e3);

  const core::ChipReport& report = session.report();
  Tally& t = out.tally;
  ++t.dies;
  t.stimuli += stimuli;
  t.iter_sum += report.test.iterations;
  t.forced += report.test.forced;
  if (!report.config.feasible) ++t.infeasible;
  if (report.passed.value_or(false)) ++t.pass_proposed;

  const double td = service.designated_period();
  spans.time(Layer::kYieldEval, kRoot, c, [&] {
    const core::ConfigResult ideal =
        core::configure_ideal(problem, td, chip, service.options().config);
    if (ideal.feasible &&
        core::chip_passes(problem, chip,
                          core::buffer_values(problem, ideal.steps), td)) {
      ++t.pass_ideal;
    }
    if (core::chip_passes_untuned(problem, chip, td)) ++t.pass_untuned;
  });
  out.last_end = Clock::now();
  t.allocations += thread_allocations() - allocs0;
  spans.add(kRoot, kRoot, c, die0, out.last_end);

  return report.test.iterations == stimuli && report.passed.has_value() &&
         (!report.config.feasible ||
          report.config.steps.size() == problem.num_buffers());
}

/// Closed loop on `workers` threads: each takes the next die index until
/// `limit` dies were taken or `deadline` passed, whichever comes first.
std::vector<WorkerOut> run_loop(const core::TunerService& service,
                                std::size_t workers, std::uint64_t limit,
                                Clock::time_point deadline, bool traced,
                                Clock::time_point epoch) {
  const std::uint64_t seed_base = service.monte_carlo_seed_base();
  std::vector<WorkerOut> outs;
  outs.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    outs.emplace_back(SpanRecorder(traced, epoch, kKeptOps * workers));
  }
  std::atomic<std::uint64_t> next{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        WorkerOut& out = outs[w];
        timing::SampleWorkspace ws;
        while (Clock::now() < deadline) {
          const std::uint64_t c = next.fetch_add(1);
          if (c >= limit) break;
          try {
            if (!run_die(service, seed_base, c, ws, out)) ++out.tally.errors;
          } catch (const std::exception& e) {
            ++out.tally.errors;
            std::cerr << "perfbench: die " << c << ": " << e.what() << "\n";
          }
        }
      });
    }
  }
  return outs;
}

struct Window {
  Tally tally;
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double busy_s = 0.0;
  SpanRecorder spans{true, Clock::now(), 0};
};

Window summarize(std::vector<WorkerOut>& outs, Clock::time_point start) {
  Window w;
  Clock::time_point end = start;
  for (WorkerOut& o : outs) {
    w.tally.add(o.tally);
    w.latency_ms.insert(w.latency_ms.end(), o.latency_ms.begin(),
                        o.latency_ms.end());
    w.spans.merge(o.spans);
    end = std::max(end, o.last_end);
  }
  w.wall_s = seconds_between(start, end);
  w.busy_s = w.spans.seconds(Layer::kChip);
  return w;
}

Window timed_window(const core::TunerService& service, std::size_t workers,
                    double seconds, bool traced, Clock::time_point epoch) {
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<WorkerOut> outs =
      run_loop(service, workers, UINT64_MAX, deadline, traced, epoch);
  return summarize(outs, start);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Step 2 of the run: this driver vs core::run_flow on the same dies.
void check_against_run_flow(const Provisioned& p,
                            const core::FlowOptions& options,
                            std::size_t workers, Result& result,
                            Tally& check_tally) {
  const core::Problem& problem = p.circuit->problem;
  const core::TunerService& service = *p.service;
  core::FlowOptions ropts = options;
  ropts.designated_period = service.designated_period();
  ropts.chips = kCheckDies;
  ropts.threads = 1;
  const core::FlowResult ref =
      core::run_flow(problem, ropts, service.shared_artifacts());
  const core::TunerService redriven(problem, ropts,
                                    service.shared_artifacts());

  std::vector<WorkerOut> outs =
      run_loop(redriven, workers, kCheckDies, Clock::time_point::max(),
               false, Clock::now());
  const Window w = summarize(outs, Clock::now());
  check_tally = w.tally;
  const Tally& t = w.tally;
  result.attempted += kCheckDies;

  const core::FlowArtifacts& art = service.artifacts();
  const double eps = redriven.test_options().epsilon_ps;
  std::size_t pathwise = 0;
  for (std::size_t i = 0; i < problem.model().num_pairs(); ++i) {
    pathwise +=
        core::pathwise_iterations(art.prior_lower[i], art.prior_upper[i], eps);
  }
  const double n = static_cast<double>(kCheckDies);
  const double ta = static_cast<double>(t.iter_sum) / n;
  const double tap = static_cast<double>(pathwise);
  const double ra = tap > 0.0 ? (tap - ta) / tap * 100.0 : 0.0;
  const double yt = static_cast<double>(t.pass_proposed) / n;
  const double yi = static_cast<double>(t.pass_ideal) / n;
  const core::FlowMetrics& m = ref.metrics;
  const bool match = t.dies == kCheckDies && t.errors == 0 &&
                     same_bits(ta, m.ta) && same_bits(ra, m.ra) &&
                     same_bits(yt, m.yield_proposed) &&
                     same_bits(yi, m.yield_ideal) &&
                     t.forced == m.forced_resolutions &&
                     t.infeasible == m.infeasible_configs;
  if (!match) {
    result.fail(kCheckDies,
                "tester_mc driver disagrees with run_flow (ta " +
                    std::to_string(ta) + " vs " + std::to_string(m.ta) +
                    ", yt " + std::to_string(yt) + " vs " +
                    std::to_string(m.yield_proposed) + ")");
  }
}

}  // namespace

Result run_tester_mc(const Args& args) {
  Result result;
  const Clock::time_point epoch = Clock::now();
  core::FlowOptions options;
  options.seed = args.seed;
  options.threads = args.workers;

  SpanRecorder setup_spans(args.trace, epoch, kSetupReps);
  std::vector<SetupTimes> reps;
  Provisioned p;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    p = Provisioned{};  // release the previous rep before building anew
    p = provision(kCircuit, options, setup_spans, r);
    reps.push_back(p.times);
  }

  Tally check;
  check_against_run_flow(p, options, args.workers, result, check);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Window timed =
      timed_window(*p.service, args.workers, untraced_s, false, epoch);
  result.attempted += timed.tally.dies;
  if (timed.tally.errors != 0) {
    result.fail(timed.tally.errors, "inconsistent or failed dies");
  }

  std::vector<double> setup_totals;
  for (const SetupTimes& s : reps) setup_totals.push_back(s.total_s);
  EndToEnd e2e;
  e2e.setup_s = quantile(setup_totals, 0.5);
  e2e.throughput_per_s = static_cast<double>(timed.tally.dies) / timed.wall_s;
  e2e.latency_p50_ms = quantile(timed.latency_ms, 0.50);
  e2e.latency_p90_ms = quantile(timed.latency_ms, 0.90);

  const double n = static_cast<double>(check.dies);
  const double ta = static_cast<double>(check.iter_sum) / n;
  const double yt_pct = static_cast<double>(check.pass_proposed) / n * 100.0;
  result.summary = {
      {"chips_per_s", e2e.throughput_per_s, "1/s"},
      {"chip_p50_ms", e2e.latency_p50_ms, "ms"},
      {"chip_p90_ms", e2e.latency_p90_ms, "ms"},
      {"chip_p99_ms", quantile(timed.latency_ms, 0.99), "ms"},
      {"chips_timed", static_cast<double>(timed.tally.dies), "count"},
      {"iterations_per_chip", ta, "count"},
      {"yield_proposed_pct", yt_pct, "%"},
      {"design_period_ps", p.service->designated_period(), "ps"},
  };

  if (args.trace) {
    Window traced = timed_window(*p.service, args.workers,
                                 args.seconds - untraced_s, true, epoch);
    result.attempted += traced.tally.dies;
    if (traced.tally.errors != 0) {
      result.fail(traced.tally.errors, "inconsistent or failed dies");
    }
    add_setup_layers(result, reps);
    add_prepare_pieces(result, time_prepare_pieces(p, options));

    const SpanRecorder& s = traced.spans;
    const Tally& t = traced.tally;
    const double dies = static_cast<double>(t.dies);
    auto& pl = result.per_layer;
    double attributed = 0.0;
    for (const Layer l :
         {Layer::kSampleChip, Layer::kNextStimulus, Layer::kChipApply,
          Layer::kRecordResponse, Layer::kPredictConfigure, Layer::kFinalTest,
          Layer::kYieldEval}) {
      pl.push_back({std::string(layer_name(l)) + "_s", s.seconds(l), "s"});
      attributed += s.seconds(l);
    }
    pl.push_back({"core.chip_unattributed_s", traced.busy_s - attributed, "s"});
    pl.push_back({"core.chips_traced", dies, "count"});
    pl.push_back({"core.stimuli_per_chip", double(t.stimuli) / dies, "count"});
    pl.push_back({"core.armed_per_stimulus",
                  double(t.armed) / double(t.stimuli), "count"});
    pl.push_back({"core.forced_per_chip", double(t.forced) / dies, "count"});
    pl.push_back({"core.infeasible_frac", double(t.infeasible) / dies,
                  "ratio"});
    pl.push_back({"core.iterations_per_chip", ta, "count"});
    pl.push_back({"core.yield_proposed_pct", yt_pct, "%"});
    pl.push_back({"alloc.per_chip", double(t.allocations) / dies, "count"});
    pl.push_back({"parallel.busy_frac",
                  traced.busy_s / (double(args.workers) * traced.wall_s),
                  "ratio"});
    const double traced_tput = dies / traced.wall_s;
    pl.push_back({"trace.overhead_pct",
                  (e2e.throughput_per_s / traced_tput - 1.0) * 100.0, "%"});

    setup_spans.merge(traced.spans);
    setup_spans.write(args.trace_file, args.workload);
  }
  add_end_to_end(result, e2e);
  return result;
}

}  // namespace perfbench
