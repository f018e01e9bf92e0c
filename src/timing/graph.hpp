#pragma once
// Static timing analysis over the gate-level netlist.
//
// Provides the structural timing facts EffiTest needs:
//  * nominal max/min delays between every connected flip-flop pair, and
//  * explicit near-critical path enumeration (gate sequences) per pair,
//    which the statistical model turns into correlated delay forms.
//
// Delay bookkeeping: a register-to-register path delay is
//   clk->Q(src FF) + sum of combinational gate delays;
// setup/hold times of the capturing FF are added by the model layer
// (D_ij = d_ij + s_j per the paper's eq. 1 discussion).

#include <cstddef>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"

namespace effitest::timing {

/// A structural register-to-register path.
struct StructuralPath {
  int src_ff = -1;
  int dst_ff = -1;
  /// Combinational gate ids in propagation order (excludes both FFs).
  std::vector<int> gates;
  /// Nominal delay: clk->Q + gate delays (no setup/hold).
  double nominal_delay = 0.0;
};

/// Max/min nominal delay summary for one connected FF pair.
struct PairDelay {
  int src_ff = -1;
  int dst_ff = -1;
  double max_delay = 0.0;  ///< longest-path nominal (clk->Q + gates)
  double min_delay = 0.0;  ///< shortest-path nominal (clk->Q + gates)
};

class TimingGraph {
 public:
  /// Arrival times across one launching FF's combinational fanout cone.
  /// Caller-owned scratch, reusable across sweeps: a sweep resets only the
  /// cells the previous one reached, so after the first call no sweep
  /// allocates or clears the n-sized vectors. Keep one per thread; the
  /// graph itself holds no sweep state.
  struct ConeArrival {
    int src_ff = -1;
    // Per cell: -inf when unreachable from src_ff.
    std::vector<double> max_arrival;
    std::vector<double> min_arrival;
    // Combinational cells reached from src_ff, in topological order.
    std::vector<int> cells;
    // Flip-flops whose D pin src_ff or a cell of the cone drives, in
    // ascending id (Netlist::flip_flops()) order.
    std::vector<int> sinks;
  };

  TimingGraph(const netlist::Netlist& netlist,
              const netlist::CellLibrary& library);

  [[nodiscard]] const netlist::Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const netlist::CellLibrary& library() const { return *library_; }

  /// Nominal delay of one cell (0 for inputs/outputs; clk->Q for DFFs).
  [[nodiscard]] double cell_delay(int id) const {
    return delays_[static_cast<std::size_t>(id)];
  }

  /// All connected FF pairs with nominal max/min delays (one cone sweep per
  /// launching FF), grouped by source in flip_flops() order, sinks ascending.
  [[nodiscard]] std::vector<PairDelay> all_pair_delays() const;

  /// Forward sweep from one launching FF across its combinational fanout
  /// cone, written into `cone`. Every reached cell takes max/min over its
  /// fanins in netlist order, exactly as a full topological pass would.
  void sweep(int src_ff, ConeArrival& cone) const;

  /// Enumerate, for the pair (cone.src_ff, dst_ff), every path whose nominal
  /// delay is within `slack_window` of the pair's max delay, longest first,
  /// capped at `max_paths`. Always contains the critical path.
  [[nodiscard]] std::vector<StructuralPath> near_critical_paths(
      const ConeArrival& cone, int dst_ff, double slack_window,
      std::size_t max_paths) const;

  /// The single shortest structural path of (cone.src_ff, dst_ff) (hold
  /// analysis).
  [[nodiscard]] StructuralPath min_path(const ConeArrival& cone,
                                        int dst_ff) const;

 private:
  const netlist::Netlist* netlist_;
  const netlist::CellLibrary* library_;
  std::vector<double> delays_;
  std::vector<int> topo_rank_;  // cell id -> position in topological order
  // Fanout adjacency in CSR form: the sinks of cell i are
  // fanout_cells_[fanout_begin_[i] .. fanout_begin_[i + 1]).
  std::vector<int> fanout_begin_;
  std::vector<int> fanout_cells_;
};

}  // namespace effitest::timing
