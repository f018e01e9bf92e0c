#include "core/alignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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

  explicit Fixture(std::uint64_t seed = 13)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 80;
          s.num_gates = 900;
          s.num_buffers = 3;
          s.num_critical_paths = 24;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

double objective_at(const AlignmentInstance& inst, const AlignmentResult& r) {
  double acc = 0.0;
  for (const AlignmentEntry& e : inst.entries) {
    double shifted = e.center;
    if (e.src_buf >= 0) {
      shifted += inst.problem->buffers()[static_cast<std::size_t>(e.src_buf)]
                     .value(r.steps[static_cast<std::size_t>(e.src_buf)]);
    }
    if (e.dst_buf >= 0) {
      shifted -= inst.problem->buffers()[static_cast<std::size_t>(e.dst_buf)]
                     .value(r.steps[static_cast<std::size_t>(e.dst_buf)]);
    }
    acc += e.weight * std::abs(r.period - shifted);
  }
  return acc;
}

TEST(MiddleOutWeights, MiddleGetsK0) {
  const std::vector<double> centers{10.0, 30.0, 20.0};
  const std::vector<double> w = middle_out_weights(centers, 100.0, 1.0);
  ASSERT_EQ(w.size(), 3u);
  // Sorted: 10, 20, 30 -> middle is 20 (index 2 of input).
  EXPECT_DOUBLE_EQ(w[2], 100.0);
  EXPECT_LT(w[0], 100.0);
  EXPECT_LT(w[1], 100.0);
  EXPECT_DOUBLE_EQ(w[0], w[1]);  // symmetric distance from the middle
}

TEST(MiddleOutWeights, FlooredAtKd) {
  std::vector<double> centers(10);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers[i] = static_cast<double>(i);
  }
  const std::vector<double> w = middle_out_weights(centers, 3.0, 1.0);
  for (double v : w) EXPECT_GE(v, 1.0);
}

TEST(MiddleOutWeights, EmptyAndSingle) {
  EXPECT_TRUE(middle_out_weights({}, 10.0, 1.0).empty());
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(middle_out_weights(one, 10.0, 1.0)[0], 10.0);
}

TEST(Alignment, SingleEntryPeriodHitsShiftedCenter) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.entries.push_back(AlignmentEntry{150.0, 1.0, 0, -1});
  for (const AlignmentResult& r :
       {solve_alignment(inst), solve_alignment_milp(inst, MilpForm::kCompact),
        solve_alignment_milp(inst, MilpForm::kBigM)}) {
    EXPECT_NEAR(r.objective, 0.0, 1e-6);
    EXPECT_NEAR(objective_at(inst, r), r.objective, 1e-9);
  }
}

TEST(Alignment, TwoOpposedEntriesMeetInMiddle) {
  // Paths c=100 (+x0) and c=110 (-x0): x0 = 5 aligns both at 105 when the
  // range allows; otherwise the solver saturates x0.
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{110.0, 1.0, -1, 0});
  const double half_range = f.problem.buffers()[0].tau / 2.0;
  const AlignmentResult cd = solve_alignment(inst);
  const AlignmentResult milp = solve_alignment_milp(inst, MilpForm::kCompact);
  if (half_range >= 5.0) {
    // Residual bounded by one step of quantization across two entries.
    EXPECT_NEAR(milp.objective, 0.0,
                1.5 * f.problem.buffers()[0].step_size());
  }
  // CD must match the exact optimum on this trivial instance.
  EXPECT_NEAR(cd.objective, milp.objective,
              1.5 * f.problem.buffers()[0].step_size());
}

TEST(Alignment, EmptyInstanceNoop) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  const AlignmentResult r = solve_alignment(inst);
  EXPECT_EQ(r.steps, inst.current_steps);
}

TEST(Alignment, MissingProblemThrows) {
  AlignmentInstance inst;
  EXPECT_THROW(solve_alignment(inst), std::invalid_argument);
  EXPECT_THROW(solve_alignment_milp(inst, MilpForm::kCompact),
               std::invalid_argument);
}

TEST(Alignment, BadStepsSizeThrows) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = {0};  // wrong size
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  EXPECT_THROW(solve_alignment(inst), std::invalid_argument);
  EXPECT_THROW(solve_alignment_milp(inst, MilpForm::kBigM),
               std::invalid_argument);
}

TEST(Alignment, FrozenBuffersRespected) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.allow_buffer_moves = false;
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{140.0, 1.0, 1, -1});
  const AlignmentResult r = solve_alignment(inst);
  EXPECT_EQ(r.steps, inst.current_steps);  // nothing moved
  EXPECT_GT(r.objective, 0.0);             // centers cannot be merged
}

TEST(Alignment, HoldConstraintsBlockSkew) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  // Entry wants x0 very negative; hold bound x0 >= 0 forbids it.
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{120.0, 1.0, -1, -1});
  inst.hold.push_back(HoldConstraintX{0, -1, 0.0});  // x0 >= 0
  for (const AlignmentResult& r :
       {solve_alignment(inst),
        solve_alignment_milp(inst, MilpForm::kCompact)}) {
    const double x0 = f.problem.buffers()[0].value(r.steps[0]);
    EXPECT_GE(x0, -1e-9);
  }
}

TEST(Alignment, BigMAndCompactMilpAgree) {
  const Fixture f;
  stats::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    AlignmentInstance inst;
    inst.problem = &f.problem;
    inst.current_steps = f.problem.neutral_steps();
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<double> centers;
    for (std::size_t i = 0; i < n; ++i) {
      centers.push_back(rng.uniform(140.0, 180.0));
    }
    const std::vector<double> w = middle_out_weights(centers, 1000.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const int src = static_cast<int>(rng.uniform_int(-1, 2));
      int dst = static_cast<int>(rng.uniform_int(-1, 2));
      if (dst == src && src >= 0) dst = -1;
      inst.entries.push_back(AlignmentEntry{centers[i], w[i], src, dst});
    }
    const AlignmentResult compact =
        solve_alignment_milp(inst, MilpForm::kCompact);
    const AlignmentResult bigm = solve_alignment_milp(inst, MilpForm::kBigM);
    EXPECT_NEAR(compact.objective, bigm.objective,
                1e-4 * (1.0 + compact.objective))
        << "trial " << trial;
  }
}

// Ablation-style property: coordinate descent objective is close to the
// exact MILP optimum (small gap) and never better.
class CdQualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdQualityTest, NearOptimalOnRandomInstances) {
  const Fixture f(GetParam() % 3 + 11);
  stats::Rng rng(GetParam());
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  std::vector<double> centers;
  for (std::size_t i = 0; i < n; ++i) {
    centers.push_back(rng.uniform(140.0, 190.0));
  }
  const std::vector<double> w = middle_out_weights(centers, 1000.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const int src = static_cast<int>(rng.uniform_int(-1, 2));
    int dst = static_cast<int>(rng.uniform_int(-1, 2));
    if (dst == src && src >= 0) dst = -1;
    inst.entries.push_back(AlignmentEntry{centers[i], w[i], src, dst});
  }
  const AlignmentResult cd = solve_alignment(inst);
  const AlignmentResult exact =
      solve_alignment_milp(inst, MilpForm::kCompact);
  // CD cannot beat the exact solver...
  EXPECT_GE(cd.objective, exact.objective - 1e-6);
  // ...and should be within 25% + epsilon of it on these instance sizes.
  EXPECT_LE(cd.objective, exact.objective * 1.25 + 2.0);
  // Both respect the consistency between reported and recomputed objective.
  EXPECT_NEAR(objective_at(inst, cd), cd.objective, 1e-9);
  EXPECT_NEAR(objective_at(inst, exact), exact.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdQualityTest,
                         ::testing::Range<std::uint64_t>(1, 16));

/// FNV-1a over the bits of every coordinate-descent result.
struct ResultDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(const AlignmentResult& r) {
    mix(std::bit_cast<std::uint64_t>(r.period));
    mix(std::bit_cast<std::uint64_t>(r.objective));
    for (int s : r.steps) mix(static_cast<std::uint64_t>(s));
    mix(r.feasible ? 1U : 0U);
  }
};

/// Seeded random alignment instance: buffers shared by many entries, hold
/// bounds (often binding, sometimes unsatisfiable), frozen buffers,
/// non-neutral starting steps and tied centers. Half of the entries of an
/// s9234-sized problem take their buffers from real monitored pairs.
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

// Bit-identity lock for the coordinate-descent solver: any change to the
// order or kind of floating-point operations moves the digest. Instance
// generation goes through <random> distributions, so the recorded value is
// a libstdc++ artifact, like golden_metrics_test.
TEST(Alignment, CoordinateDescentDigestPinned) {
  const Fixture small;
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem s9234(model);

  ResultDigest digest;
  ResultDigest reused_digest;  // one workspace across every instance
  AlignmentWorkspace workspace;
  std::size_t moved = 0;
  std::size_t infeasible = 0;
  for (const Problem* problem : {&small.problem, &s9234}) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
      const AlignmentInstance inst = random_instance(*problem, seed);
      const AlignmentResult r =
          solve_alignment(inst);
      ASSERT_NEAR(objective_at(inst, r), r.objective,
                  1e-9 * (1.0 + r.objective));
      if (!inst.allow_buffer_moves) {
        ASSERT_EQ(r.steps, inst.current_steps);
      }
      moved += r.steps != inst.current_steps ? 1 : 0;
      infeasible += r.feasible ? 0 : 1;
      digest.add(r);
      reused_digest.add(solve_alignment(
          inst, workspace));
    }
  }
  // The instance mix exercises both moves and unsatisfiable hold bounds.
  EXPECT_GT(moved, 100u);
  EXPECT_GT(infeasible, 10u);
  EXPECT_EQ(reused_digest.h, digest.h);
#if defined(__GLIBCXX__)
  // Recorded before the allocation-free rewrite of the solver.
  EXPECT_EQ(digest.h, 0x3377b2c34a6fab89ULL);
#endif
}

// More than 16 tied centers: libstdc++'s std::sort stops insertion-sorting
// (which happens to be stable) there, so the tie order must come from the
// comparator. Ties are ranked by index.
TEST(MiddleOutWeights, TiedCentersRankedByIndex) {
  const std::size_t n = 41;
  std::vector<double> centers(n, 150.0);
  for (std::size_t i = 0; i < n; i += 4) centers[i] = 149.0;
  const std::vector<double> w = middle_out_weights(centers, 1000.0, 1.0);
  // Rank order: the 149.0 block by index, then the 150.0 block by index.
  std::vector<std::size_t> by_rank;
  for (std::size_t i = 0; i < n; ++i) {
    if (centers[i] == 149.0) by_rank.push_back(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (centers[i] == 150.0) by_rank.push_back(i);
  }
  const double mid = (static_cast<double>(n) - 1.0) / 2.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const double dist = std::abs(static_cast<double>(rank) - mid);
    EXPECT_EQ(w[by_rank[rank]], std::max(1000.0 - dist, 1.0))
        << "rank " << rank;
  }

  // The allocation-free form agrees and reuses its buffers.
  std::vector<double> weights;
  std::vector<std::size_t> order;
  middle_out_weights(centers, 1000.0, 1.0, weights, order);
  EXPECT_EQ(weights, w);
  middle_out_weights(std::span<const double>(centers).first(3), 1000.0, 1.0,
                     weights, order);
  EXPECT_EQ(weights, middle_out_weights(
                         std::span<const double>(centers).first(3), 1000.0,
                         1.0));
}

}  // namespace
}  // namespace effitest::core
