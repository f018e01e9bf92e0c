#include "timing/model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "netlist/generator.hpp"
#include "stats/distributions.hpp"

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

netlist::GeneratedCircuit tiny_circuit() {
  netlist::GeneratorSpec s;
  s.name = "model_test";
  s.num_flip_flops = 50;
  s.num_gates = 600;
  s.num_buffers = 2;
  s.num_critical_paths = 16;
  s.seed = 11;
  return netlist::generate_circuit(s);
}

TEST(CircuitModel, MonitoredPairsMatchGeneratorEdges) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  EXPECT_EQ(m.num_pairs(), c.critical_edges.size());
  // Every monitored pair corresponds to a generator edge.
  std::set<std::pair<int, int>> expected(c.critical_edges.begin(),
                                         c.critical_edges.end());
  for (const MonitoredPair& p : m.pairs()) {
    EXPECT_TRUE(expected.contains({p.src_ff, p.dst_ff}));
    EXPECT_TRUE(p.src_buffered || p.dst_buffered);
  }
}

TEST(CircuitModel, BufferIndexLookup) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  for (std::size_t i = 0; i < c.buffered_ffs.size(); ++i) {
    EXPECT_EQ(m.buffer_index(c.buffered_ffs[i]), static_cast<int>(i));
  }
  EXPECT_EQ(m.buffer_index(-1 + 0), -1);  // nonexistent id never matches
}

TEST(CircuitModel, RejectsBadBufferList) {
  const auto c = tiny_circuit();
  // A combinational gate cannot carry a clock tuning buffer.
  int gate = -1;
  for (std::size_t i = 0; i < c.netlist.num_cells(); ++i) {
    if (netlist::is_combinational(c.netlist.cell(static_cast<int>(i)).type)) {
      gate = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(gate, 0);
  EXPECT_THROW(CircuitModel(c.netlist, lib(), {gate}), std::invalid_argument);
  EXPECT_THROW(
      CircuitModel(c.netlist, lib(),
                   {c.buffered_ffs[0], c.buffered_ffs[0]}),
      std::invalid_argument);
}

TEST(CircuitModel, MeansIncludeSetupAndArePositive) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  for (const MonitoredPair& p : m.pairs()) {
    EXPECT_GT(p.max_form.mean, lib().dff_setup_ps());
    EXPECT_GE(p.max_form.mean, p.min_form.mean);
    EXPECT_FALSE(p.max_alts.empty());
    EXPECT_NEAR(p.max_alts.front().mean, p.max_form.mean, 1e-12);
  }
}

TEST(CircuitModel, CovarianceIsSymmetricPsd) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  EXPECT_LT(cov.max_asymmetry(), 1e-12);
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    EXPECT_GT(cov(i, i), 0.0);
    for (std::size_t j = 0; j < cov.cols(); ++j) {
      // |corr| <= 1.
      EXPECT_LE(std::abs(cov(i, j)),
                std::sqrt(cov(i, i) * cov(j, j)) + 1e-9);
    }
  }
}

TEST(CircuitModel, SigmasConsistentWithCovariance) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  const std::vector<double> sigma = m.max_sigmas();
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    EXPECT_NEAR(sigma[i] * sigma[i], cov(i, i), 1e-9);
  }
}

TEST(CircuitModel, ChipSamplingMatchesModelStatistics) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng rng(21);
  const std::size_t chips = 4000;
  const std::size_t probe = 0;
  std::vector<double> samples(chips);
  for (std::size_t k = 0; k < chips; ++k) {
    samples[k] = m.sample_chip(rng).max_delay[probe];
  }
  const double mu = m.pairs()[probe].max_form.mean;
  const double sd = m.pairs()[probe].max_form.sigma();
  // Truth is a max over near-critical alternatives, so the sampled mean may
  // sit slightly above the primary-path mean but far within one sigma.
  EXPECT_NEAR(stats::mean(samples), mu, 0.5 * sd);
  EXPECT_NEAR(stats::stddev(samples), sd, 0.2 * sd);
}

TEST(CircuitModel, EmpiricalCorrelationTracksModel) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  stats::Rng rng(31);
  const std::size_t chips = 3000;
  std::vector<double> a(chips);
  std::vector<double> b(chips);
  const std::size_t i = 0;
  const std::size_t j = m.num_pairs() - 1;
  for (std::size_t k = 0; k < chips; ++k) {
    const Chip chip = m.sample_chip(rng);
    a[k] = chip.max_delay[i];
    b[k] = chip.max_delay[j];
  }
  const double model_corr =
      cov(i, j) / std::sqrt(cov(i, i) * cov(j, j));
  EXPECT_NEAR(stats::correlation(a, b), model_corr, 0.08);
}

TEST(CircuitModel, MinDelaysBelowMaxDelays) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng rng(41);
  for (int k = 0; k < 20; ++k) {
    const Chip chip = m.sample_chip(rng);
    for (std::size_t p = 0; p < m.num_pairs(); ++p) {
      // min path excludes the setup margin, max includes it.
      EXPECT_LT(chip.min_delay[p], chip.max_delay[p]);
    }
  }
}

TEST(CircuitModel, RandomInflationGrowsVarianceNotCovariance) {
  const auto c = tiny_circuit();
  const CircuitModel base(c.netlist, lib(), c.buffered_ffs);
  ModelOptions opts;
  opts.random_inflation = 1.1;
  const CircuitModel inflated(c.netlist, lib(), c.buffered_ffs, opts);
  const linalg::Matrix cov0 = base.max_covariance();
  const linalg::Matrix cov1 = inflated.max_covariance();
  ASSERT_EQ(cov0.rows(), cov1.rows());
  for (std::size_t i = 0; i < cov0.rows(); ++i) {
    // Diagonal scaled by 1.1^2 exactly (Fig. 7 protocol).
    EXPECT_NEAR(cov1(i, i), 1.21 * cov0(i, i), 1e-6 * cov0(i, i));
    for (std::size_t j = 0; j < cov0.cols(); ++j) {
      if (i == j) continue;
      EXPECT_NEAR(cov1(i, j), cov0(i, j), 1e-9);  // off-diagonals untouched
    }
  }
}

TEST(CircuitModel, InflationBelowOneRejected) {
  const auto c = tiny_circuit();
  ModelOptions opts;
  opts.random_inflation = 0.9;
  EXPECT_THROW(CircuitModel(c.netlist, lib(), c.buffered_ffs, opts),
               std::invalid_argument);
}

TEST(CircuitModel, BackgroundPairsDiscardedAsStaticallySafe) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  // The generator's background ring is far from critical.
  EXPECT_GT(m.num_discarded_pairs(), 0u);
  EXPECT_EQ(m.num_static_pairs(), 0u);
}

TEST(CircuitModel, DeterministicChipStream) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng r1(77);
  stats::Rng r2(77);
  const Chip a = m.sample_chip(r1);
  const Chip b = m.sample_chip(r2);
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.min_delay, b.min_delay);
}

TEST(CircuitModel, SpecializedSamplersShareTheChipStream) {
  // sample_required_period / sample_min_delays / workspace sample_chip must
  // produce exactly the full sample_chip values AND leave the rng engine in
  // exactly the same state (so loops can mix the APIs freely). Checked with
  // and without the Fig-7 inflation (which makes every form draw its own
  // deviate in evaluation order — skipped evaluations must still consume
  // theirs).
  const auto c = tiny_circuit();
  for (double inflation : {1.0, 1.3}) {
    ModelOptions options;
    options.random_inflation = inflation;
    const CircuitModel m(c.netlist, lib(), c.buffered_ffs, options);
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(round);
      stats::Rng full_rng(seed);
      stats::Rng period_rng(seed);
      stats::Rng min_rng(seed);
      stats::Rng ws_rng(seed);

      const Chip full = m.sample_chip(full_rng);
      double expected_period = 0.0;
      for (double d : full.max_delay) {
        expected_period = std::max(expected_period, d);
      }
      for (double d : full.static_delay) {
        expected_period = std::max(expected_period, d);
      }

      SampleWorkspace ws;
      EXPECT_EQ(m.sample_required_period(period_rng, ws), expected_period);
      std::vector<double> min_delay;
      m.sample_min_delays(min_rng, ws, min_delay);
      EXPECT_EQ(min_delay, full.min_delay);
      const Chip via_ws = m.sample_chip(ws_rng, ws);
      EXPECT_EQ(via_ws.max_delay, full.max_delay);
      EXPECT_EQ(via_ws.min_delay, full.min_delay);

      // Stream alignment: the engines must agree on the next raw draw.
      const std::uint64_t next = full_rng.engine()();
      EXPECT_EQ(period_rng.engine()(), next);
      EXPECT_EQ(min_rng.engine()(), next);
      EXPECT_EQ(ws_rng.engine()(), next);
    }
  }
}

/// FNV-1a over the bits of a built model: pair order and flags, every form's
/// mean, loading and mismatch slots, and the static background summary.
struct ModelDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(int v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(const DelayForm& f) {
    mix(f.mean);
    mix(static_cast<std::uint64_t>(f.loading.size()));
    for (const auto& [factor, weight] : f.loading) {
      mix(factor);
      mix(weight);
    }
    mix(static_cast<std::uint64_t>(f.mismatch_slots.size()));
    for (int slot : f.mismatch_slots) mix(slot);
    mix(f.mismatch_var);
    mix(f.extra_indep_var);
  }
  void add(const CircuitModel& m) {
    for (const MonitoredPair& p : m.pairs()) {
      mix(p.id);
      mix(p.src_ff);
      mix(p.dst_ff);
      mix(static_cast<std::uint64_t>((p.src_buffered ? 1U : 0U) |
                                     (p.dst_buffered ? 2U : 0U)));
      mix(static_cast<std::uint64_t>(p.max_alts.size()));
      for (const DelayForm& f : p.max_alts) add(f);
      add(p.min_form);
    }
    mix(static_cast<std::uint64_t>(m.static_forms().size()));
    for (const DelayForm& f : m.static_forms()) add(f);
    mix(static_cast<std::uint64_t>(m.num_discarded_pairs()));
    mix(m.nominal_critical_delay());
  }
};

// Bit-identity lock for the model build: pair enumeration order, the
// mismatch-slot numbering (first-use order across every built form) and
// each form's floating-point sums. The circuits come from the generator's
// <random> draws, so the recorded values are libstdc++ artifacts, like
// golden_metrics_test.
TEST(CircuitModel, BuildDigestPinned) {
  const netlist::GeneratedCircuit s9234 =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::GeneratedCircuit mem_ctrl =
      netlist::generate_circuit(netlist::paper_benchmark_spec("mem_ctrl"));
  // Neither circuit promotes a background pair at the default discard
  // fraction; a zero fraction promotes all of s9234's, covering pass 2.
  ModelOptions promote_all;
  promote_all.static_discard_fraction = 0.0;
  const CircuitModel models[] = {
      CircuitModel(s9234.netlist, lib(), s9234.buffered_ffs),
      CircuitModel(s9234.netlist, lib(), s9234.buffered_ffs, promote_all),
      CircuitModel(mem_ctrl.netlist, lib(), mem_ctrl.buffered_ffs)};
  EXPECT_GT(models[1].num_static_pairs(), 0u);
  std::vector<std::uint64_t> digests;
  for (const CircuitModel& m : models) {
    ModelDigest digest;
    digest.add(m);
    digests.push_back(digest.h);
  }
#if defined(__GLIBCXX__)
  // Recorded before the fanout-cone sweep replaced the full-graph pass.
  EXPECT_EQ(digests[0], 0x9f768e3f012c36d1ULL);
  EXPECT_EQ(digests[1], 0x68b15c73e9196b06ULL);
  EXPECT_EQ(digests[2], 0x3318b9e67eab40a2ULL);
#endif
}

}  // namespace
}  // namespace effitest::timing
