// Deterministic work counters of the coordinate-descent alignment. The
// instances are the 2,000 of Alignment.CoordinateDescentDigestPinned
// (alignment_test.cpp), generated the same way, so a change that keeps
// that digest but does more (or less) work shows up here, not only in a
// wall-clock benchmark.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/alignment.hpp"
#include "netlist/generator.hpp"
#include "stats/rng.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(const netlist::GeneratorSpec& spec)
      : circuit(netlist::generate_circuit(spec)),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

netlist::GeneratorSpec small_spec() {
  netlist::GeneratorSpec s;
  s.num_flip_flops = 80;
  s.num_gates = 900;
  s.num_buffers = 3;
  s.num_critical_paths = 24;
  s.seed = 13;
  return s;
}

/// The digest test's seeded instance generator, draw for draw.
AlignmentInstance random_instance(const Problem& problem, std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto nb = static_cast<std::int64_t>(problem.num_buffers());
  AlignmentInstance inst;
  inst.problem = &problem;
  inst.current_steps = problem.neutral_steps();
  if (rng.uniform() < 0.7) {
    for (std::size_t b = 0; b < problem.num_buffers(); ++b) {
      inst.current_steps[b] = static_cast<int>(
          rng.uniform_int(0, problem.buffers()[b].steps - 1));
    }
  }
  inst.allow_buffer_moves = rng.uniform() >= 0.2;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<double> centers;
  for (std::size_t i = 0; i < n; ++i) {
    centers.push_back(i > 0 && rng.uniform() < 0.15
                          ? centers[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]
                          : rng.uniform(140.0, 200.0));
  }
  const bool middle_out = rng.uniform() < 0.5;
  const std::vector<double> w = middle_out_weights(centers, 1000.0, 1.0);
  const std::size_t np = problem.model().num_pairs();
  for (std::size_t i = 0; i < n; ++i) {
    int src = static_cast<int>(rng.uniform_int(-1, nb - 1));
    int dst = static_cast<int>(rng.uniform_int(-1, nb - 1));
    if (np > 0 && rng.uniform() < 0.5) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      src = problem.src_buffer(p);
      dst = problem.dst_buffer(p);
    }
    if (dst == src && src >= 0) dst = -1;
    inst.entries.push_back(AlignmentEntry{
        centers[i], middle_out ? w[i] : rng.uniform(1.0, 1000.0), src, dst});
  }
  if (rng.uniform() < 0.6) {
    const auto nh = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t h = 0; h < nh; ++h) {
      const int src = static_cast<int>(rng.uniform_int(-1, nb - 1));
      int dst = static_cast<int>(rng.uniform_int(-1, nb - 1));
      if (dst == src) dst = src >= 0 ? -1 : 0;
      const double tau = problem.buffers()[0].tau;
      inst.hold.push_back(
          HoldConstraintX{src, dst, rng.uniform(-0.8 * tau, 0.3 * tau)});
    }
  }
  return inst;
}

TEST(AlignmentWork, CountersPinnedOverDigestInstances) {
  const Fixture small(small_spec());
  const Fixture s9234(netlist::paper_benchmark_spec("s9234"));
  AlignmentWorkspace workspace;
  for (const Problem* problem : {&small.problem, &s9234.problem}) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
      (void)solve_alignment(random_instance(*problem, seed), workspace);
    }
  }
#if defined(__GLIBCXX__)
  // The solver before the sorted-list rewrite (per-scan sort of the static
  // points, upper_bound split) did the same work, counted the same way:
  // 8,643 scans, 138,072 step evaluations and 10,464 static set builds.
  // The rewrite made each of them cheaper, not fewer.
  EXPECT_EQ(workspace.scans, 8643u);
  EXPECT_EQ(workspace.step_evals, 138072u);
  EXPECT_EQ(workspace.static_builds, 10464u);
#endif
}

TEST(AlignmentWork, CountersAccumulateAcrossSolves) {
  const Fixture small(small_spec());
  const AlignmentInstance inst = random_instance(small.problem, 7);
  AlignmentWorkspace workspace;
  (void)solve_alignment(inst, workspace);
  const AlignmentWorkspace once = workspace;
  ASSERT_GT(once.static_builds, 0u);
  (void)solve_alignment(inst, workspace);
  EXPECT_EQ(workspace.scans, 2 * once.scans);
  EXPECT_EQ(workspace.step_evals, 2 * once.step_evals);
  EXPECT_EQ(workspace.static_builds, 2 * once.static_builds);
}

}  // namespace
}  // namespace effitest::core
