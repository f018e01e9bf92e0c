#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <utility>

#include "core/grouping.hpp"
#include "core/hold_bounds.hpp"
#include "core/multiplexing.hpp"
#include "netlist/generator.hpp"
#include "stats/conditional.hpp"

namespace perfbench {

using namespace effitest;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGenerate: return "netlist.generate";
    case Layer::kModelBuild: return "timing.model_build";
    case Layer::kCalibrate: return "core.calibrate";
    case Layer::kPrepare: return "core.prepare";
    case Layer::kChip: return "chip";
    case Layer::kSampleChip: return "timing.sample_chip";
    case Layer::kNextStimulus: return "core.next_stimulus";
    case Layer::kChipApply: return "core.chip_apply";
    case Layer::kRecordResponse: return "core.record_response";
    case Layer::kPredictConfigure: return "core.predict_configure";
    case Layer::kFinalTest: return "core.final_test";
    case Layer::kYieldEval: return "core.yield_eval";
    case Layer::kDesignPass: return "design_pass";
    case Layer::kAnalyze: return "analytic.analyze";
    case Layer::kYieldCurve: return "analytic.yield_curve";
    case Layer::kSession: return "session";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanRecorder::add(Layer layer, Layer parent, std::uint64_t op,
                       Clock::time_point t0, Clock::time_point t1) {
  if (!enabled_) return;
  seconds_[static_cast<std::size_t>(layer)] += seconds_between(t0, t1);
  if (op < keep_ops_) {
    records_.push_back(Record{layer, parent, op, seconds_between(epoch_, t0),
                              seconds_between(epoch_, t1)});
  }
}

void SpanRecorder::merge(const SpanRecorder& other) {
  for (std::size_t i = 0; i < kLayers; ++i) seconds_[i] += other.seconds_[i];
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
}

void SpanRecorder::write(const std::string& path,
                         const std::string& workload) const {
  if (path.empty() || records_.empty()) return;
  std::ofstream out(path, std::ios::app);
  char line[256];
  for (const Record& r : records_) {
    std::snprintf(line, sizeof(line),
                  "{\"workload\":\"%s\",\"op\":%llu,\"span\":\"%s\","
                  "\"parent\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  workload.c_str(), static_cast<unsigned long long>(r.op),
                  layer_name(r.layer),
                  r.parent == r.layer ? "" : layer_name(r.parent),
                  r.start_s * 1e6, r.end_s * 1e6);
    out << line;
  }
}

// ---------------------------------------------------------------------------
// Provisioning.
// ---------------------------------------------------------------------------

Provisioned provision(const std::string& name,
                      const core::FlowOptions& options, SpanRecorder& spans,
                      std::uint64_t op) {
  Provisioned p;
  const Clock::time_point t0 = Clock::now();
  netlist::GeneratedCircuit gen =
      netlist::generate_circuit(netlist::paper_benchmark_spec(name));
  const Clock::time_point t1 = Clock::now();
  p.circuit = std::make_shared<const scenario::PreparedCircuit>(
      name, std::move(gen.netlist), netlist::CellLibrary::standard(),
      std::move(gen.buffered_ffs), timing::ModelOptions{},
      std::move(gen.critical_edges), std::move(gen.exclusive_edge_pairs));
  const Clock::time_point t2 = Clock::now();
  p.service = std::make_unique<const core::TunerService>(p.circuit, options);
  const Clock::time_point t3 = Clock::now();

  SetupTimes& t = p.times;
  t.generate_s = seconds_between(t0, t1);
  t.model_build_s = seconds_between(t1, t2);
  t.prepare_s = p.service->prepare_seconds();
  t.calibrate_s = seconds_between(t2, t3) - t.prepare_s;
  t.total_s = seconds_between(t0, t3);
  spans.add(Layer::kGenerate, Layer::kGenerate, op, t0, t1);
  spans.add(Layer::kModelBuild, Layer::kModelBuild, op, t1, t2);
  // The service times prepare itself; calibration is the rest of its
  // constructor and runs first.
  const auto prepare_begin =
      t3 - std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(t.prepare_s));
  spans.add(Layer::kCalibrate, Layer::kCalibrate, op, t2, prepare_begin);
  spans.add(Layer::kPrepare, Layer::kPrepare, op, prepare_begin, t3);
  return p;
}

PreparePieces time_prepare_pieces(const Provisioned& p,
                                  const core::FlowOptions& options) {
  PreparePieces out;
  const core::Problem& problem = p.circuit->problem;
  const timing::CircuitModel& model = problem.model();
  const core::FlowArtifacts& art = p.service->artifacts();

  core::GroupingOptions grouping = options.grouping;
  if (grouping.threads == 0) grouping.threads = options.threads;
  core::HoldBoundOptions hold = options.hold;
  if (hold.threads == 0) hold.threads = options.threads;
  core::BatchingOptions batching = options.batching;
  batching.optimal_coloring = false;  // prepare_flow's choice

  Clock::time_point t = Clock::now();
  const auto lap = [&t] {
    const Clock::time_point now = Clock::now();
    const double s = seconds_between(t, now);
    t = now;
    return s;
  };

  const linalg::Matrix cov = model.max_covariance(options.threads);
  out.max_covariance_s = lap();
  const core::SelectionResult selection = core::select_paths(cov, grouping);
  out.select_paths_s = lap();

  // prepare_flow's batch input: selected paths cluster-major, by mean
  // within a cluster.
  const std::vector<double> means = model.max_means();
  std::vector<std::size_t> order;
  for (const core::PathGroup& g : selection.groups) {
    std::vector<std::size_t> sorted = g.selected;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](std::size_t a, std::size_t b) {
                       return means[a] < means[b];
                     });
    order.insert(order.end(), sorted.begin(), sorted.end());
  }
  lap();
  const std::vector<core::Batch> batches =
      core::build_batches(problem, order, batching);
  out.build_batches_s = lap();
  if (selection.tested.size() < model.num_pairs()) {
    const auto gain =
        stats::PredictionGain::compute(cov, selection.tested, 1e-9);
    out.prediction_gain_s = lap();
  }
  stats::Rng rng(options.seed);
  const std::vector<core::HoldConstraintX> bounds =
      core::compute_hold_bounds(problem, rng, hold);
  out.hold_bounds_s = lap();

  out.unattributed_s = p.times.prepare_s -
                       (out.max_covariance_s + out.select_paths_s +
                        out.build_batches_s + out.prediction_gain_s +
                        out.hold_bounds_s);
  out.groups = art.selection.groups.size();
  out.tested_paths = art.tested.size();
  out.batches = art.batches.size();
  out.hold_constraints = art.hold.size();
  return out;
}

// ---------------------------------------------------------------------------
// Result.
// ---------------------------------------------------------------------------

void Result::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.end_to_end = {
      {"setup_s", e2e.setup_s, "s"},
      {"throughput_per_s", e2e.throughput_per_s, "1/s"},
      {"latency_p50_ms", e2e.latency_p50_ms, "ms"},
      {"latency_p90_ms", e2e.latency_p90_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

void add_setup_layers(Result& result, const std::vector<SetupTimes>& reps) {
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : reps) v.push_back(r.*field);
    return quantile(std::move(v), 0.5);
  };
  const double gen = med(&SetupTimes::generate_s);
  const double model = med(&SetupTimes::model_build_s);
  const double cal = med(&SetupTimes::calibrate_s);
  const double prep = med(&SetupTimes::prepare_s);
  result.per_layer.push_back({"netlist.generate_s", gen, "s"});
  result.per_layer.push_back({"timing.model_build_s", model, "s"});
  result.per_layer.push_back({"core.calibrate_s", cal, "s"});
  result.per_layer.push_back({"core.prepare_s", prep, "s"});
  result.per_layer.push_back(
      {"setup.unattributed_s",
       med(&SetupTimes::total_s) - (gen + model + cal + prep), "s"});
}

void add_prepare_pieces(Result& result, const PreparePieces& pieces) {
  auto& pl = result.per_layer;
  pl.push_back({"timing.max_covariance_s", pieces.max_covariance_s, "s"});
  pl.push_back({"core.select_paths_s", pieces.select_paths_s, "s"});
  pl.push_back({"core.build_batches_s", pieces.build_batches_s, "s"});
  pl.push_back({"stats.prediction_gain_s", pieces.prediction_gain_s, "s"});
  pl.push_back({"core.hold_bounds_s", pieces.hold_bounds_s, "s"});
  pl.push_back({"core.prepare_unattributed_s", pieces.unattributed_s, "s"});
  pl.push_back({"core.groups", double(pieces.groups), "count"});
  pl.push_back({"core.tested_paths", double(pieces.tested_paths), "count"});
  pl.push_back({"core.batches", double(pieces.batches), "count"});
  pl.push_back(
      {"core.hold_constraints", double(pieces.hold_constraints), "count"});
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      // setup_s
      {"netlist.generate_s", "s"},
      {"timing.model_build_s", "s"},
      {"core.calibrate_s", "s"},
      {"core.prepare_s", "s"},
      {"setup.unattributed_s", "s"},
      // prepare pieces
      {"timing.max_covariance_s", "s"},
      {"core.select_paths_s", "s"},
      {"core.build_batches_s", "s"},
      {"stats.prediction_gain_s", "s"},
      {"core.hold_bounds_s", "s"},
      {"core.prepare_unattributed_s", "s"},
      {"core.groups", "count"},
      {"core.tested_paths", "count"},
      {"core.batches", "count"},
      {"core.hold_constraints", "count"},
      // analytic engine
      {"analytic.analyze_s", "s"},
      {"analytic.yield_curve_s", "s"},
      {"analytic.candidates", "count"},
      // per-chip busy time, summed over workers in the traced window
      {"timing.sample_chip_s", "s"},
      {"core.next_stimulus_s", "s"},
      {"core.chip_apply_s", "s"},
      {"core.record_response_s", "s"},
      {"core.predict_configure_s", "s"},
      {"core.final_test_s", "s"},
      {"core.yield_eval_s", "s"},
      {"core.chip_unattributed_s", "s"},
      {"core.chips_traced", "count"},
      // per-chip counts and ratios
      {"core.stimuli_per_chip", "count"},
      {"core.armed_per_stimulus", "count"},
      {"core.forced_per_chip", "count"},
      {"core.infeasible_frac", "ratio"},
      {"core.iterations_per_chip", "count"},
      {"core.yield_proposed_pct", "%"},
      {"alloc.per_chip", "count"},
      {"parallel.busy_frac", "ratio"},
      // transport
      {"core.session_compute_ms", "ms"},
      {"net.worker_session_ms", "ms"},
      {"fleet.relay_ms", "ms"},
      {"net.connect_ms", "ms"},
      {"net.stimuli_per_session", "count"},
      {"fleet.sessions_retried", "count"},
      {"net.sessions_failed", "count"},
      // the cost of tracing itself
      {"trace.overhead_pct", "%"},
  };
  return catalog;
}

}  // namespace perfbench
