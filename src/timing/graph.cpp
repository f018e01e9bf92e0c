#include "timing/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace effitest::timing {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
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
  topo_order_ = netlist.topological_order();
  fanouts_ = netlist.fanouts();
}

TimingGraph::ConeArrival TimingGraph::sweep(int src_ff) const {
  const std::size_t n = netlist_->num_cells();
  ConeArrival cone;
  cone.max_arrival.assign(n, kNegInf);
  cone.min_arrival.assign(n, kNegInf);
  cone.max_arrival[static_cast<std::size_t>(src_ff)] = delays_[static_cast<std::size_t>(src_ff)];
  cone.min_arrival[static_cast<std::size_t>(src_ff)] = delays_[static_cast<std::size_t>(src_ff)];

  for (int id : topo_order_) {
    const netlist::Cell& c = netlist_->cell(id);
    if (!netlist::is_combinational(c.type)) continue;
    double best_max = kNegInf;
    double best_min = kNegInf;
    for (int u : c.fanins) {
      const double am = cone.max_arrival[static_cast<std::size_t>(u)];
      if (am == kNegInf) continue;
      best_max = std::max(best_max, am);
      const double an = cone.min_arrival[static_cast<std::size_t>(u)];
      best_min = (best_min == kNegInf) ? an : std::min(best_min, an);
    }
    if (best_max != kNegInf) {
      const auto i = static_cast<std::size_t>(id);
      cone.max_arrival[i] = best_max + delays_[i];
      cone.min_arrival[i] = best_min + delays_[i];
    }
  }
  return cone;
}

std::vector<PairDelay> TimingGraph::all_pair_delays() const {
  std::vector<PairDelay> out;
  const std::vector<int> ffs = netlist_->flip_flops();
  for (int s : ffs) {
    const ConeArrival cone = sweep(s);
    for (int t : ffs) {
      const int w = netlist_->cell(t).fanins.empty() ? -1 : netlist_->cell(t).fanins[0];
      if (w < 0) continue;
      const double am = cone.max_arrival[static_cast<std::size_t>(w)];
      if (am == kNegInf) continue;
      out.push_back(PairDelay{s, t, am, cone.min_arrival[static_cast<std::size_t>(w)]});
    }
  }
  return out;
}

std::vector<StructuralPath> TimingGraph::near_critical_paths(
    int src_ff, int dst_ff, double slack_window, std::size_t max_paths) const {
  return near_critical_paths(sweep(src_ff), src_ff, dst_ff, slack_window,
                             max_paths);
}

std::vector<StructuralPath> TimingGraph::near_critical_paths(
    const ConeArrival& cone, int src_ff, int dst_ff, double slack_window,
    std::size_t max_paths) const {
  std::vector<StructuralPath> out;
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

StructuralPath TimingGraph::min_path(int src_ff, int dst_ff) const {
  return min_path(sweep(src_ff), src_ff, dst_ff);
}

StructuralPath TimingGraph::min_path(const ConeArrival& cone, int src_ff,
                                     int dst_ff) const {
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
