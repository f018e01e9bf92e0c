#pragma once
// Shared plumbing of the perfbench driver: clocks, latency statistics,
// span recording around calls into the program's layers, allocation and
// memory counters, circuit provisioning, and the result record every
// workload fills in.
//
// Spans are recorded here, in the benchmark, around public calls. Nothing
// inside src/ is instrumented.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/tuner_service.hpp"
#include "scenario/circuit_catalog.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its span records (JSON lines); empty = none.
  std::string trace_file;
  /// Closed-loop worker threads and client connections: the CPUs this
  /// process may run on, capped at 8.
  std::size_t workers = 1;
};

/// q-quantile by linear interpolation between closest ranks; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Heap allocations made so far by the calling thread (every global
/// operator new of this executable is counted; alloc_counter.cpp).
[[nodiscard]] std::uint64_t thread_allocations();

/// Peak resident set size of this process, MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] std::size_t usable_cpus();

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// Every layer call the benchmark can time. Names are the per-layer metric
/// names without the unit suffix.
enum class Layer : std::uint8_t {
  kGenerate,          ///< netlist::generate_circuit
  kModelBuild,        ///< PreparedCircuit: CircuitModel + Problem
  kCalibrate,         ///< TunerService ctor minus prepare (T_d, epsilon)
  kPrepare,           ///< TunerService::prepare_seconds
  kChip,              ///< one whole die (root span of the per-chip layers)
  kSampleChip,        ///< CircuitModel::sample_chip
  kNextStimulus,      ///< TuningSession::next_stimulus (alignment solve)
  kChipApply,         ///< SimulatedChip::apply
  kRecordResponse,    ///< record_response that stays in the test phase
  kPredictConfigure,  ///< record_response that leaves the test phase
  kFinalTest,         ///< SimulatedChip::final_test + record_final
  kYieldEval,         ///< configure_ideal + untuned check
  kDesignPass,        ///< one design_prep pass (root span)
  kAnalyze,           ///< analytic::analyze_tuned_period
  kYieldCurve,        ///< TunedPeriodAnalysis::yield_curve
  kSession,           ///< one relay session (root span)
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer);

/// Per-thread span recorder. When enabled it sums busy seconds per layer
/// and keeps the full records of ops below `keep_ops` for the trace file.
/// When disabled every call is one branch.
class SpanRecorder {
 public:
  struct Record {
    Layer layer;
    Layer parent;  ///< == layer for a root span
    std::uint64_t op;
    double start_s;  ///< since the recorder's epoch
    double end_s;
  };

  SpanRecorder(bool enabled, Clock::time_point epoch, std::uint64_t keep_ops)
      : enabled_(enabled), epoch_(epoch), keep_ops_(keep_ops) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Time `f()` as a span of `layer` under `parent` for op `op`.
  template <class F>
  decltype(auto) time(Layer layer, Layer parent, std::uint64_t op, F&& f) {
    if (!enabled_) return f();
    const Clock::time_point t0 = Clock::now();
    struct Close {
      SpanRecorder* self;
      Layer layer, parent;
      std::uint64_t op;
      Clock::time_point t0;
      ~Close() { self->add(layer, parent, op, t0, Clock::now()); }
    } close{this, layer, parent, op, t0};
    return f();
  }

  /// Record an already-measured interval (no-op when disabled).
  void add(Layer layer, Layer parent, std::uint64_t op, Clock::time_point t0,
           Clock::time_point t1);

  [[nodiscard]] double seconds(Layer layer) const {
    return seconds_[static_cast<std::size_t>(layer)];
  }

  /// Fold another worker's totals and records into this one.
  void merge(const SpanRecorder& other);

  /// Append the kept records as JSON lines to `path` (no-op when empty).
  void write(const std::string& path, const std::string& workload) const;

 private:
  static constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);
  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t keep_ops_;
  std::array<double, kLayers> seconds_{};
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Provisioning: provision -> calibrate -> prepare, each step timed.
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double model_build_s = 0.0;
  double calibrate_s = 0.0;
  double prepare_s = 0.0;
  double total_s = 0.0;  ///< first call until begin_chip() is callable
};

/// One paper circuit provisioned and prepared behind a TunerService.
struct Provisioned {
  std::shared_ptr<const effitest::scenario::PreparedCircuit> circuit;
  std::unique_ptr<const effitest::core::TunerService> service;
  SetupTimes times;
};

/// Generate the paper benchmark `name`, build its CircuitModel/Problem and
/// construct a TunerService that calibrates T_d itself (options'
/// designated_period must be <= 0). Spans go to `spans` under op `op`.
[[nodiscard]] Provisioned provision(const std::string& name,
                                    const effitest::core::FlowOptions& options,
                                    SpanRecorder& spans, std::uint64_t op);

/// The pieces of prepare_flow, timed by calling the same public functions
/// on the same inputs, plus the artifact counts.
struct PreparePieces {
  double max_covariance_s = 0.0;
  double select_paths_s = 0.0;
  double build_batches_s = 0.0;
  double prediction_gain_s = 0.0;
  double hold_bounds_s = 0.0;
  double unattributed_s = 0.0;  ///< prepare_seconds minus the pieces
  std::size_t groups = 0;
  std::size_t tested_paths = 0;
  std::size_t batches = 0;
  std::size_t hold_constraints = 0;
};

[[nodiscard]] PreparePieces time_prepare_pieces(
    const Provisioned& p, const effitest::core::FlowOptions& options);

// ---------------------------------------------------------------------------
// Result.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Outputs checked and found right; any mismatch clears it and adds to
  /// `failed`.
  bool correct = true;
  std::vector<Metric> end_to_end;  ///< reported by an untraced run
  std::vector<Metric> per_layer;   ///< reported by a traced run
  /// Workload-specific names for the end-to-end values and anything else
  /// worth a line in the human summary.
  std::vector<Metric> summary;

  void fail(std::uint64_t n, const std::string& why);
};

/// The end-to-end metric names every workload reports (BENCHMARK.json).
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
};
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// setup_s layer metrics shared by the workloads that provision circuits:
/// the medians over `reps` of each step, plus the unattributed remainder.
void add_setup_layers(Result& result, const std::vector<SetupTimes>& reps);
void add_prepare_pieces(Result& result, const PreparePieces& pieces);

/// Every per-layer metric name a traced run reports, in output order, with
/// its unit. A workload that does not exercise a layer reports 0 for it.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

[[nodiscard]] Result run_tester_mc(const Args& args);
[[nodiscard]] Result run_design_prep(const Args& args);
[[nodiscard]] Result run_tester_relay(const Args& args);

}  // namespace perfbench
