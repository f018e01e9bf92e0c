#include "timing/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace effitest::timing {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Marks a cell discovered by sweep() but not yet timed. Every fanin of a
// cone cell that lies in the cone precedes it topologically, so the timing
// pass overwrites each mark before anything reads it.
constexpr double kDiscovered = std::numeric_limits<double>::infinity();
}

TimingGraph::TimingGraph(const netlist::Netlist& netlist,
                         const netlist::CellLibrary& library)
    : netlist_(&netlist), library_(&library) {
  const std::size_t n = netlist.num_cells();
  delays_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    delays_[i] = library.timing(netlist.cell(static_cast<int>(i)).type)
                     .nominal_delay_ps;
  }
  const std::vector<int> order = netlist.topological_order();
  topo_rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    topo_rank_[static_cast<std::size_t>(order[r])] = static_cast<int>(r);
  }
  fanout_begin_.assign(n + 1, 0);
  for (const netlist::Cell& c : netlist.cells()) {
    for (int u : c.fanins) ++fanout_begin_[static_cast<std::size_t>(u) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) fanout_begin_[i + 1] += fanout_begin_[i];
  fanout_cells_.resize(static_cast<std::size_t>(fanout_begin_[n]));
  // Sinks in ascending id per driver, as Netlist::fanouts() lists them.
  std::vector<int> next(fanout_begin_.begin(), fanout_begin_.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (int u : netlist.cell(static_cast<int>(v)).fanins) {
      const int slot = next[static_cast<std::size_t>(u)]++;
      fanout_cells_[static_cast<std::size_t>(slot)] = static_cast<int>(v);
    }
  }
}

void TimingGraph::sweep(int src_ff, ConeArrival& cone) const {
  const std::size_t n = delays_.size();
  if (cone.max_arrival.size() != n) {
    cone.max_arrival.assign(n, kNegInf);
    cone.min_arrival.assign(n, kNegInf);
  } else {
    // Only the previous source and its cone hold finite arrivals.
    if (cone.src_ff >= 0) {
      cone.max_arrival[static_cast<std::size_t>(cone.src_ff)] = kNegInf;
      cone.min_arrival[static_cast<std::size_t>(cone.src_ff)] = kNegInf;
    }
    for (int id : cone.cells) {
      cone.max_arrival[static_cast<std::size_t>(id)] = kNegInf;
      cone.min_arrival[static_cast<std::size_t>(id)] = kNegInf;
    }
  }
  cone.src_ff = src_ff;
  cone.cells.clear();
  cone.sinks.clear();
  const auto s = static_cast<std::size_t>(src_ff);
  cone.max_arrival[s] = delays_[s];
  cone.min_arrival[s] = delays_[s];

  // Discover the cone breadth-first over fanouts (cone.cells doubles as the
  // worklist) and collect the flip-flops whose D pin it drives.
  const auto expand = [&](int u) {
    const auto i = static_cast<std::size_t>(u);
    for (int f = fanout_begin_[i]; f < fanout_begin_[i + 1]; ++f) {
      const int v = fanout_cells_[static_cast<std::size_t>(f)];
      const netlist::Cell& c = netlist_->cell(v);
      if (netlist::is_combinational(c.type)) {
        double& mark = cone.max_arrival[static_cast<std::size_t>(v)];
        if (mark == kNegInf) {
          mark = kDiscovered;
          cone.cells.push_back(v);
        }
      } else if (c.type == netlist::CellType::kDff && c.fanins[0] == u) {
        cone.sinks.push_back(v);
      }
    }
  };
  expand(src_ff);
  for (std::size_t i = 0; i < cone.cells.size(); ++i) expand(cone.cells[i]);
  std::sort(cone.cells.begin(), cone.cells.end(), [&](int a, int b) {
    return topo_rank_[static_cast<std::size_t>(a)] <
           topo_rank_[static_cast<std::size_t>(b)];
  });
  // An unvalidated DFF may list its D driver twice.
  std::sort(cone.sinks.begin(), cone.sinks.end());
  cone.sinks.erase(std::unique(cone.sinks.begin(), cone.sinks.end()),
                   cone.sinks.end());

  // Time the cone in topological order. Fanins outside it read -inf and are
  // skipped, so each cell sees the same operands in the same order as in a
  // full-graph pass.
  for (int id : cone.cells) {
    double best_max = kNegInf;
    double best_min = kNegInf;
    for (int u : netlist_->cell(id).fanins) {
      const double am = cone.max_arrival[static_cast<std::size_t>(u)];
      if (am == kNegInf) continue;
      best_max = std::max(best_max, am);
      const double an = cone.min_arrival[static_cast<std::size_t>(u)];
      best_min = (best_min == kNegInf) ? an : std::min(best_min, an);
    }
    const auto i = static_cast<std::size_t>(id);
    cone.max_arrival[i] = best_max + delays_[i];
    cone.min_arrival[i] = best_min + delays_[i];
  }
}

std::vector<PairDelay> TimingGraph::all_pair_delays() const {
  std::vector<PairDelay> out;
  ConeArrival cone;
  for (int s : netlist_->flip_flops()) {
    sweep(s, cone);
    for (int t : cone.sinks) {
      const auto w = static_cast<std::size_t>(netlist_->cell(t).fanins[0]);
      out.push_back(PairDelay{s, t, cone.max_arrival[w], cone.min_arrival[w]});
    }
  }
  return out;
}

std::vector<StructuralPath> TimingGraph::near_critical_paths(
    const ConeArrival& cone, int dst_ff, double slack_window,
    std::size_t max_paths) const {
  std::vector<StructuralPath> out;
  const int src_ff = cone.src_ff;
  const netlist::Cell& dst = netlist_->cell(dst_ff);
  if (dst.type != netlist::CellType::kDff || dst.fanins.empty()) {
    throw netlist::NetlistError("near_critical_paths: dst is not a driven DFF");
  }
  const int w = dst.fanins[0];
  const double full = cone.max_arrival[static_cast<std::size_t>(w)];
  if (full == kNegInf) return out;
  const double threshold = full - slack_window;
  const double clkq = delays_[static_cast<std::size_t>(src_ff)];

  // Backward DFS from the D-pin driver. `trail` holds gates from the current
  // node up to w in reverse propagation order.
  std::vector<int> trail;
  const auto visit = [&](auto&& self, int v, double suffix) -> void {
    if (out.size() >= max_paths) return;
    trail.push_back(v);
    const netlist::Cell& cell = netlist_->cell(v);
    // Fanins sorted by descending max arrival so the critical path pops first.
    std::vector<int> preds = cell.fanins;
    std::sort(preds.begin(), preds.end(), [&](int a, int bb) {
      return cone.max_arrival[static_cast<std::size_t>(a)] >
             cone.max_arrival[static_cast<std::size_t>(bb)];
    });
    for (int u : preds) {
      if (out.size() >= max_paths) break;
      if (u == src_ff) {
        if (clkq + suffix >= threshold - 1e-12) {
          StructuralPath p;
          p.src_ff = src_ff;
          p.dst_ff = dst_ff;
          p.gates.assign(trail.rbegin(), trail.rend());
          p.nominal_delay = clkq + suffix;
          out.push_back(std::move(p));
        }
        continue;
      }
      const netlist::Cell& uc = netlist_->cell(u);
      if (!netlist::is_combinational(uc.type)) continue;
      const double au = cone.max_arrival[static_cast<std::size_t>(u)];
      if (au == kNegInf) continue;
      if (au + suffix < threshold - 1e-12) continue;  // prune
      self(self, u, suffix + delays_[static_cast<std::size_t>(u)]);
    }
    trail.pop_back();
  };
  visit(visit, w, delays_[static_cast<std::size_t>(w)]);

  std::sort(out.begin(), out.end(),
            [](const StructuralPath& a, const StructuralPath& b) {
              return a.nominal_delay > b.nominal_delay;
            });
  return out;
}

StructuralPath TimingGraph::min_path(const ConeArrival& cone,
                                     int dst_ff) const {
  const int src_ff = cone.src_ff;
  const netlist::Cell& dst = netlist_->cell(dst_ff);
  if (dst.type != netlist::CellType::kDff || dst.fanins.empty()) {
    throw netlist::NetlistError("min_path: dst is not a driven DFF");
  }
  const int w = dst.fanins[0];
  if (cone.max_arrival[static_cast<std::size_t>(w)] == kNegInf) {
    throw netlist::NetlistError("min_path: pair not connected");
  }
  StructuralPath p;
  p.src_ff = src_ff;
  p.dst_ff = dst_ff;
  p.nominal_delay = cone.min_arrival[static_cast<std::size_t>(w)];
  // Greedy backtrack along min arrivals.
  int v = w;
  while (v != src_ff) {
    p.gates.push_back(v);
    const netlist::Cell& cell = netlist_->cell(v);
    int best = -1;
    double best_val = 0.0;
    for (int u : cell.fanins) {
      // The minimizing predecessor is the one whose min arrival defined
      // min_arrival[v]; src_ff itself is a valid (DFF) predecessor.
      if (u != src_ff &&
          !netlist::is_combinational(netlist_->cell(u).type)) {
        continue;
      }
      const double a = cone.min_arrival[static_cast<std::size_t>(u)];
      if (a == kNegInf) continue;
      if (best < 0 || a < best_val) {
        best = u;
        best_val = a;
      }
    }
    if (best < 0) {
      throw netlist::NetlistError("min_path: backtrack failed");
    }
    v = best;
  }
  std::reverse(p.gates.begin(), p.gates.end());
  return p;
}

}  // namespace effitest::timing
