#include "timing/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

/// The cone of one launching flip-flop, swept into fresh scratch.
TimingGraph::ConeArrival cone_of(const TimingGraph& g, int src_ff) {
  TimingGraph::ConeArrival cone;
  g.sweep(src_ff, cone);
  return cone;
}

/// ff1 -> b1 -> b2 -> ff2 plus a parallel longer branch b3 -> b4 -> b5.
struct DiamondFixture {
  netlist::Netlist nl{"diamond"};
  int ff1, ff2, b1, b2, b3, b4, b5, merge;

  DiamondFixture() {
    ff1 = nl.add_cell("ff1", netlist::CellType::kDff);
    b1 = nl.add_cell("b1", netlist::CellType::kBuf, {ff1});
    b2 = nl.add_cell("b2", netlist::CellType::kBuf, {b1});
    b3 = nl.add_cell("b3", netlist::CellType::kNot, {ff1});
    b4 = nl.add_cell("b4", netlist::CellType::kNot, {b3});
    b5 = nl.add_cell("b5", netlist::CellType::kNot, {b4});
    merge = nl.add_cell("merge", netlist::CellType::kAnd, {b2, b5});
    ff2 = nl.add_cell("ff2", netlist::CellType::kDff, {merge});
    nl.set_fanins(ff1, {merge});  // sequential loop, fine
  }
};

TEST(TimingGraph, CellDelaysFromLibrary) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  EXPECT_DOUBLE_EQ(g.cell_delay(f.b1),
                   lib().timing(netlist::CellType::kBuf).nominal_delay_ps);
  EXPECT_DOUBLE_EQ(g.cell_delay(f.ff1), lib().dff_clk_to_q_ps());
}

TEST(TimingGraph, PairDelaysMaxAndMin) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto pairs = g.all_pair_delays();
  ASSERT_EQ(pairs.size(), 2u);  // ff1->ff2 and ff1->ff1 (through loop? no:
  // ff1's D comes from merge which is fed by ff1's cone) — both pairs exist.
  const double clkq = lib().dff_clk_to_q_ps();
  const double buf = lib().timing(netlist::CellType::kBuf).nominal_delay_ps;
  const double inv = lib().timing(netlist::CellType::kNot).nominal_delay_ps;
  const double andd = lib().timing(netlist::CellType::kAnd).nominal_delay_ps;
  for (const PairDelay& pd : pairs) {
    EXPECT_EQ(pd.src_ff, f.ff1);
    EXPECT_NEAR(pd.max_delay, clkq + 3.0 * inv + andd, 1e-9);
    EXPECT_NEAR(pd.min_delay, clkq + 2.0 * buf + andd, 1e-9);
  }
}

TEST(TimingGraph, NearCriticalPathEnumeration) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  // Wide window captures both branches.
  const auto paths =
      g.near_critical_paths(cone_of(g, f.ff1), f.ff2, 100.0, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_GE(paths[0].nominal_delay, paths[1].nominal_delay);
  // Longest path goes through the NOT chain.
  EXPECT_EQ(paths[0].gates.size(), 4u);  // b3 b4 b5 merge
  EXPECT_EQ(paths[1].gates.size(), 3u);  // b1 b2 merge
}

TEST(TimingGraph, WindowPrunesShortBranch) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto paths = g.near_critical_paths(cone_of(g, f.ff1), f.ff2, 0.5, 10);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].gates.size(), 4u);
}

TEST(TimingGraph, PathCapRespected) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto paths =
      g.near_critical_paths(cone_of(g, f.ff1), f.ff2, 100.0, 1);
  ASSERT_EQ(paths.size(), 1u);
  // The cap must keep the critical path.
  EXPECT_EQ(paths[0].gates.size(), 4u);
}

TEST(TimingGraph, PathDelayConsistentWithGateSum) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  for (const StructuralPath& p :
       g.near_critical_paths(cone_of(g, f.ff1), f.ff2, 100.0, 10)) {
    double acc = g.cell_delay(p.src_ff);
    for (int gate : p.gates) acc += g.cell_delay(gate);
    EXPECT_NEAR(acc, p.nominal_delay, 1e-9);
  }
}

TEST(TimingGraph, MinPathIsShortBranch) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const StructuralPath mp = g.min_path(cone_of(g, f.ff1), f.ff2);
  EXPECT_EQ(mp.gates.size(), 3u);  // b1 b2 merge
  double acc = g.cell_delay(f.ff1);
  for (int gate : mp.gates) acc += g.cell_delay(gate);
  EXPECT_NEAR(acc, mp.nominal_delay, 1e-9);
}

TEST(TimingGraph, DisconnectedPairRejected) {
  netlist::Netlist nl;
  const int pi = nl.add_cell("pi", netlist::CellType::kInput);
  const int g1 = nl.add_cell("g1", netlist::CellType::kBuf, {pi});
  const int ffa = nl.add_cell("ffa", netlist::CellType::kDff, {g1});
  const int g2 = nl.add_cell("g2", netlist::CellType::kBuf, {pi});
  const int ffb = nl.add_cell("ffb", netlist::CellType::kDff, {g2});
  const TimingGraph g(nl, lib());
  const TimingGraph::ConeArrival cone = cone_of(g, ffa);
  EXPECT_TRUE(cone.cells.empty());
  EXPECT_TRUE(cone.sinks.empty());
  EXPECT_TRUE(g.near_critical_paths(cone, ffb, 10.0, 4).empty());
  EXPECT_THROW((void)g.min_path(cone, ffb), netlist::NetlistError);
  EXPECT_TRUE(g.all_pair_delays().empty());
}

TEST(TimingGraph, NominalCriticalDelay) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const double clkq = lib().dff_clk_to_q_ps();
  const double inv = lib().timing(netlist::CellType::kNot).nominal_delay_ps;
  const double andd = lib().timing(netlist::CellType::kAnd).nominal_delay_ps;
  double critical = 0.0;
  for (const PairDelay& pd : g.all_pair_delays()) {
    critical = std::max(critical, pd.max_delay);
  }
  EXPECT_NEAR(critical, clkq + 3.0 * inv + andd, 1e-9);
}

TEST(TimingGraph, WorksOnParsedBench) {
  const netlist::Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
f1 = DFF(g2)
g1 = NOT(f1)
g2 = NAND(g1, a)
)");
  const TimingGraph g(nl, lib());
  const auto pairs = g.all_pair_delays();
  ASSERT_EQ(pairs.size(), 1u);  // f1 -> f1 self-loop through g1, g2
  EXPECT_EQ(pairs[0].src_ff, pairs[0].dst_ff);
  const double expected =
      lib().dff_clk_to_q_ps() +
      lib().timing(netlist::CellType::kNot).nominal_delay_ps +
      lib().timing(netlist::CellType::kNand).nominal_delay_ps;
  EXPECT_NEAR(pairs[0].max_delay, expected, 1e-9);
}

// -- Exact oracle for the cone sweep ----------------------------------------

/// Full-graph forward pass from one launching FF: every combinational cell
/// in topological order takes max/min over its fanins. This is the pass the
/// cone sweep replaced; the cone must reproduce it bit for bit.
struct FullSweep {
  std::vector<double> max_arrival;
  std::vector<double> min_arrival;
};

FullSweep reference_sweep(const TimingGraph& g, const std::vector<int>& topo,
                          int src_ff) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const netlist::Netlist& nl = g.netlist();
  FullSweep out;
  out.max_arrival.assign(nl.num_cells(), kNegInf);
  out.min_arrival.assign(nl.num_cells(), kNegInf);
  const auto s = static_cast<std::size_t>(src_ff);
  out.max_arrival[s] = g.cell_delay(src_ff);
  out.min_arrival[s] = g.cell_delay(src_ff);
  for (int id : topo) {
    const netlist::Cell& c = nl.cell(id);
    if (!netlist::is_combinational(c.type)) continue;
    double best_max = kNegInf;
    double best_min = kNegInf;
    for (int u : c.fanins) {
      const double am = out.max_arrival[static_cast<std::size_t>(u)];
      if (am == kNegInf) continue;
      best_max = std::max(best_max, am);
      const double an = out.min_arrival[static_cast<std::size_t>(u)];
      best_min = (best_min == kNegInf) ? an : std::min(best_min, an);
    }
    if (best_max != kNegInf) {
      const auto i = static_cast<std::size_t>(id);
      out.max_arrival[i] = best_max + g.cell_delay(id);
      out.min_arrival[i] = best_min + g.cell_delay(id);
    }
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Sweeps every flip-flop forward and then backward through ONE scratch
/// (so a stale cell left by a larger earlier cone would show) and compares
/// each against the full pass; then checks all_pair_delays() against the
/// all-sinks scan over the full pass. Returns the number of pairs.
std::size_t expect_cone_matches_full_sweep(const netlist::Netlist& nl) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const TimingGraph g(nl, lib());
  const std::vector<int> ffs = nl.flip_flops();
  const std::vector<int> topo = nl.topological_order();
  std::vector<int> order = ffs;
  order.insert(order.end(), ffs.rbegin(), ffs.rend());
  TimingGraph::ConeArrival cone;
  for (int s : order) {
    g.sweep(s, cone);
    const FullSweep ref = reference_sweep(g, topo, s);
    EXPECT_EQ(cone.src_ff, s);
    EXPECT_TRUE(same_bits(cone.max_arrival, ref.max_arrival))
        << nl.name() << " max arrivals from " << nl.cell(s).name;
    EXPECT_TRUE(same_bits(cone.min_arrival, ref.min_arrival))
        << nl.name() << " min arrivals from " << nl.cell(s).name;
    std::vector<int> sinks;
    for (int t : ffs) {
      const auto w = static_cast<std::size_t>(nl.cell(t).fanins[0]);
      if (ref.max_arrival[w] != kNegInf) sinks.push_back(t);
    }
    EXPECT_EQ(cone.sinks, sinks) << nl.name() << " sinks of " << nl.cell(s).name;
  }

  std::vector<PairDelay> expected;
  for (int s : ffs) {
    const FullSweep ref = reference_sweep(g, topo, s);
    for (int t : ffs) {
      const auto w = static_cast<std::size_t>(nl.cell(t).fanins[0]);
      if (ref.max_arrival[w] == kNegInf) continue;
      expected.push_back(
          PairDelay{s, t, ref.max_arrival[w], ref.min_arrival[w]});
    }
  }
  const std::vector<PairDelay> pairs = g.all_pair_delays();
  EXPECT_EQ(pairs.size(), expected.size()) << nl.name();
  for (std::size_t i = 0; i < std::min(pairs.size(), expected.size()); ++i) {
    EXPECT_EQ(pairs[i].src_ff, expected[i].src_ff) << nl.name() << " #" << i;
    EXPECT_EQ(pairs[i].dst_ff, expected[i].dst_ff) << nl.name() << " #" << i;
    EXPECT_EQ(std::memcmp(&pairs[i].max_delay, &expected[i].max_delay,
                          sizeof(double)), 0) << nl.name() << " #" << i;
    EXPECT_EQ(std::memcmp(&pairs[i].min_delay, &expected[i].min_delay,
                          sizeof(double)), 0) << nl.name() << " #" << i;
  }
  return pairs.size();
}

TEST(TimingGraph, ConeSweepMatchesFullGraphSweep) {
  const DiamondFixture diamond;
  EXPECT_EQ(expect_cone_matches_full_sweep(diamond.nl), 2u);

  // One flip-flop feeding itself through g1, g2.
  const netlist::Netlist self_loop = netlist::parse_bench_string(R"(
INPUT(a)
f1 = DFF(g2)
g1 = NOT(f1)
g2 = NAND(g1, a)
)");
  EXPECT_EQ(expect_cone_matches_full_sweep(self_loop), 1u);

  // ffb's D pin is ffa itself (a direct register-to-register edge); ffa and
  // ffd are driven only from the primary input; g3 mixes two sources and g4
  // lists one fanin twice.
  netlist::Netlist edges{"edges"};
  const int pi = edges.add_cell("pi", netlist::CellType::kInput);
  const int ffa = edges.add_cell("ffa", netlist::CellType::kDff, {pi});
  const int ffb = edges.add_cell("ffb", netlist::CellType::kDff, {ffa});
  const int g1 = edges.add_cell("g1", netlist::CellType::kNand, {ffa, pi});
  edges.add_cell("ffc", netlist::CellType::kDff, {g1});
  const int g2 = edges.add_cell("g2", netlist::CellType::kBuf, {pi});
  edges.add_cell("ffd", netlist::CellType::kDff, {g2});
  const int g3 = edges.add_cell("g3", netlist::CellType::kAnd, {ffb, g1});
  edges.add_cell("ffe", netlist::CellType::kDff, {g3});
  const int g4 = edges.add_cell("g4", netlist::CellType::kOr, {g1, g1});
  edges.add_cell("fff", netlist::CellType::kDff, {g4});
  // ffa -> ffb, ffc, ffe, fff; ffb -> ffe.
  EXPECT_EQ(expect_cone_matches_full_sweep(edges), 5u);
  const TimingGraph g(edges, lib());
  const std::vector<PairDelay> pairs = g.all_pair_delays();
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].src_ff, ffa);
  EXPECT_EQ(pairs[0].dst_ff, ffb);
  EXPECT_EQ(pairs[0].max_delay, lib().dff_clk_to_q_ps());

  const netlist::Netlist s27 = netlist::parse_bench_file(
      std::string(EFFITEST_EXAMPLES_DIR) + "/s27_demo.bench");
  EXPECT_EQ(expect_cone_matches_full_sweep(s27), 7u);

  for (const char* name : {"s9234", "mem_ctrl"}) {
    const netlist::GeneratedCircuit c =
        netlist::generate_circuit(netlist::paper_benchmark_spec(name));
    EXPECT_GT(expect_cone_matches_full_sweep(c.netlist), 0u) << name;
  }
}

}  // namespace
}  // namespace effitest::timing
