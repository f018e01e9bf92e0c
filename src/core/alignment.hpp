#pragma once
// Delay-range alignment by tuning buffers (paper §3.3, eqs. 6-14).
//
// Before each frequency step, the tester chooses a clock period T and a set
// of buffer values so that T sits as close as possible to the centers of the
// unresolved delay ranges, shifted by x_src - x_dst:
//
//   minimize sum_ij k_ij * | T - ((u_ij + l_ij)/2 + x_i - x_j) |     (eq. 7)
//
// subject to the buffer range/step constraints (eq. 14 / eq. 3) and the
// hold-time lower bounds x_i - x_j >= lambda_ij (§3.5, eq. 21).
//
// One production solver, solve_alignment(): weighted-median updates of T
// interleaved with per-buffer discrete line search (coordinate descent).
// It runs inside the Monte-Carlo loop, orders of magnitude faster than a
// MILP; an ablation bench quantifies its optimality gap.
//
// The exact MILPs are kept as a named oracle, solve_alignment_milp(), for
// tests and benches:
//  * MilpForm::kCompact — the absolute values linearized as
//                         eta >= +/-(...), exact;
//  * MilpForm::kBigM    — the paper's literal indicator-variable
//                         formulation (eqs. 8-13), exact; both forms must
//                         agree.
//
// Weights follow the paper: sort the range centers, give the middle one k0
// and decrease by kd per rank outward (k0 >> kd), which breaks the
// degenerate non-overlapping case of Fig. 6e.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"

namespace effitest::core {

/// One unresolved path range inside the batch being aligned.
struct AlignmentEntry {
  double center = 0.0;  ///< (u_ij + l_ij) / 2 of the current range
  double weight = 1.0;  ///< k_ij
  int src_buf = -1;     ///< global buffer index at the source (-1: x == 0)
  int dst_buf = -1;     ///< global buffer index at the sink   (-1: x == 0)
};

/// Hold-time bound x_i - x_j >= lambda (buffer indices; -1 side is fixed 0).
struct HoldConstraintX {
  int src_buf = -1;
  int dst_buf = -1;
  double lambda = 0.0;
};

struct AlignmentInstance {
  const Problem* problem = nullptr;
  std::vector<AlignmentEntry> entries;
  std::vector<HoldConstraintX> hold;
  /// Current step assignment of ALL buffers; buffers not referenced by any
  /// entry stay frozen at these values (their x still enters hold bounds).
  std::vector<int> current_steps;
  /// When false the buffers are left untouched (multiplexing-only mode,
  /// Fig. 8 case 2): only T is optimized.
  bool allow_buffer_moves = true;
};

struct AlignmentResult {
  double period = 0.0;         ///< chosen clock period T
  std::vector<int> steps;      ///< full buffer step assignment to program
  double objective = 0.0;      ///< achieved eq.-7 objective
  bool feasible = true;        ///< hold bounds satisfiable
};

/// Formulation of the MILP oracle.
enum class MilpForm : std::uint8_t {
  kCompact,  ///< eta >= +/-(T - shifted center)
  kBigM,     ///< the paper's indicator binaries, eqs. 8-13
};

/// Reusable scratch for repeated alignment solves. Purely an allocation
/// cache, like timing::SampleWorkspace: results never depend on what it
/// held before. Keep one per tester loop.
struct AlignmentWorkspace {
  /// One entry at the current steps; `sorted` orders them by (center,
  /// weight, index).
  struct SortedEntry {
    double center = 0.0;  ///< shifted center
    double weight = 0.0;
    int src_buf = -1;
    int dst_buf = -1;
    std::size_t index = 0;  ///< into AlignmentInstance::entries
  };
  /// x_src - x_dst of an entry or hold bound during the scan of buffer b:
  /// a side is b's value when it `moves`, else its fixed value.
  struct ScanTerm {
    double fixed_src = 0.0;
    double fixed_dst = 0.0;
    bool src_moves = false;
    bool dst_moves = false;

    /// x_src and x_dst with b at value `xb`.
    [[nodiscard]] double src(double xb) const {
      return src_moves ? xb : fixed_src;
    }
    [[nodiscard]] double dst(double xb) const {
      return dst_moves ? xb : fixed_dst;
    }
  };
  /// An entry of the scanned buffer: its weight is fixed, its shifted
  /// center `m` = center + x_src - x_dst moves with the step being tried.
  struct DynPoint {
    double center = 0.0;
    double weight = 0.0;
    double m = 0.0;
    ScanTerm skew;
  };
  /// A hold bound of the scanned buffer: x_src - x_dst >= lambda - 1e-9.
  struct HoldBound {
    double floor = 0.0;
    ScanTerm skew;
  };

  /// Movable buffers, ascending and de-duplicated.
  std::vector<int> involved;
  /// Entries / hold bounds touching involved[v]:
  /// dyn_entries[dyn_begin[v] .. dyn_begin[v + 1]), likewise for hold.
  std::vector<std::size_t> dyn_begin;
  std::vector<std::size_t> dyn_entries;
  std::vector<std::size_t> hold_begin;
  std::vector<std::size_t> hold_entries;
  /// Every entry, sorted at the current steps; re-sorted after each move.
  std::vector<SortedEntry> sorted;
  /// Static point set: `sorted` minus the scanned buffer's entries, as
  /// ascending centers with prefix sums of w and w * center.
  std::vector<double> static_m;
  std::vector<double> prefix_w;
  std::vector<double> prefix_wm;
  /// The scanned buffer's entries (the dynamic points) and hold bounds.
  std::vector<DynPoint> dyn;
  std::vector<HoldBound> hold_bounds;
  /// The step-invariant static candidates with their static objective.
  std::vector<double> static_t;
  std::vector<double> static_obj;
  /// Work done by every solve with this workspace: buffer scans, steps
  /// evaluated (hold-feasible steps whose best period is computed) and
  /// static point sets built (one per solve plus one per scan that reaches
  /// a feasible step). Deterministic, so they can be gated exactly.
  std::uint64_t scans = 0;
  std::uint64_t step_evals = 0;
  std::uint64_t static_builds = 0;
  /// Last result; valid until the next solve with this workspace.
  AlignmentResult result;
};

/// Middle-out weight assignment over range centers (k0 to the median center,
/// decreasing by kd per rank outward; floored at kd). Tied centers are
/// ranked by index, so the result does not depend on the sort algorithm.
[[nodiscard]] std::vector<double> middle_out_weights(
    std::span<const double> centers, double k0, double kd);

/// Allocation-free form: fills `weights` (resized to centers.size()) using
/// `order` as scratch.
void middle_out_weights(std::span<const double> centers, double k0, double kd,
                        std::vector<double>& weights,
                        std::vector<std::size_t>& order);

/// Coordinate-descent alignment of `instance`.
[[nodiscard]] AlignmentResult solve_alignment(
    const AlignmentInstance& instance);

/// Same solve, reusing `workspace`; it does no heap allocation once the
/// workspace has grown to the instance size. The returned reference is
/// `workspace.result`.
const AlignmentResult& solve_alignment(const AlignmentInstance& instance,
                                       AlignmentWorkspace& workspace);

/// Exact oracle: the same problem as a MILP in the given form, solved by
/// the in-house branch & bound. For tests and benches, not the tester loop.
[[nodiscard]] AlignmentResult solve_alignment_milp(
    const AlignmentInstance& instance, MilpForm form);

}  // namespace effitest::core
