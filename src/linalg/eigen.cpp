#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.hpp"

namespace effitest::linalg {

std::size_t EigenDecomposition::components_for_coverage(double coverage) const {
  if (values.empty()) return 0;
  double total = 0.0;
  for (double v : values) total += std::max(v, 0.0);
  if (total <= 0.0) return 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc += std::max(values[i], 0.0);
    if (acc >= coverage * total) return i + 1;
  }
  return values.size();
}

std::size_t EigenDecomposition::components_above_mean(double scale) const {
  if (values.empty()) return 0;
  double total = 0.0;
  for (double v : values) total += std::max(v, 0.0);
  const double floor = scale * total / static_cast<double>(values.size());
  std::size_t count = 0;
  for (double v : values) {
    if (v >= floor * (1.0 - 1e-9)) ++count;
  }
  return std::max<std::size_t>(count, 1);
}

namespace {

// The cyclic Jacobi of kernels::reference_eigen_symmetric, restructured so
// every memory access walks a contiguous row while each matrix element
// sees the same floating-point operations in the same order (DESIGN.md §9):
//
//  * V is kept transposed, so the eigenvector update rotate_cols(v, p, q)
//    becomes rotate_rows(vt, p, q), element for element.
//  * A's column rotations are deferred. Within one p-loop the rotation
//    (p, q) changes only entries (k, p) and (k, q) of a row k outside
//    {p, q}, and nothing else reads row k until it becomes the q of a later
//    rotation. So the loop records each applied rotation, and a row replays
//    its pending ones in q order just before it is next read: row q before
//    rotation (p, q), every other row at the end of the p-loop. Rows p and q
//    take the column rotation eagerly on their four 2x2 entries.

/// One applied rotation of the current p-loop: column q of A against
/// column p with (c, s).
struct ColumnRotation {
  std::size_t q;
  double c;
  double s;
};

[[nodiscard]] double* row_of(Matrix& m, std::size_t k) {
  return m.data().data() + k * m.cols();
}

/// Rows replayed together: independent chains on (k, p) interleave, so the
/// multiply/subtract latency of one row hides behind the others.
constexpr std::size_t kLanes = 4;

/// Apply rotations [from, to) to `row` in order. Each step is exactly
/// kernels::rotate_cols' update of one row; (row, p) stays in a register.
void replay_row(double* row, std::size_t p, const ColumnRotation* ops,
                std::size_t from, std::size_t to) {
  if (from >= to) return;
  double x = row[p];
  for (std::size_t j = from; j < to; ++j) {
    const ColumnRotation& r = ops[j];
    const double y = row[r.q];
    row[r.q] = r.s * x + r.c * y;
    x = r.c * x - r.s * y;
  }
  row[p] = x;
}

/// replay_row on kLanes rows that share the same pending range.
void replay_rows(double* const* rows, std::size_t p,
                 const ColumnRotation* ops, std::size_t from,
                 std::size_t to) {
  if (from >= to) return;
  double x[kLanes] = {};
  for (std::size_t l = 0; l < kLanes; ++l) x[l] = rows[l][p];
  for (std::size_t j = from; j < to; ++j) {
    const ColumnRotation& r = ops[j];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double y = rows[l][r.q];
      rows[l][r.q] = r.s * x[l] + r.c * y;
      x[l] = r.c * x[l] - r.s * y;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) rows[l][p] = x[l];
}

/// Bring rows `ks` (at most kLanes) up to rotation `to`. `synced[k]` counts
/// the rotations row k already has; every row ends at `to`.
void sync_rows(Matrix& a, std::size_t p, const ColumnRotation* ops,
               const std::size_t* ks, std::size_t count,
               std::vector<std::size_t>& synced, std::size_t to) {
  if (count < kLanes) {
    for (std::size_t i = 0; i < count; ++i) {
      replay_row(row_of(a, ks[i]), p, ops, synced[ks[i]], to);
      synced[ks[i]] = to;
    }
    return;
  }
  // Catch the lanes up to a common start, then interleave the rest.
  std::size_t from = 0;
  for (std::size_t i = 0; i < kLanes; ++i) from = std::max(from, synced[ks[i]]);
  double* rows[kLanes] = {};
  for (std::size_t i = 0; i < kLanes; ++i) {
    rows[i] = row_of(a, ks[i]);
    replay_row(rows[i], p, ops, synced[ks[i]], from);
    synced[ks[i]] = to;
  }
  replay_rows(rows, p, ops, from, to);
}

}  // namespace

EigenDecomposition eigen_symmetric(Matrix a, std::size_t max_sweeps,
                                   double tol) {
  if (!a.is_square()) {
    throw LinalgError("eigen_symmetric requires square matrix");
  }
  const std::size_t n = a.rows();
  Matrix vt = Matrix::identity(n);  // V^T: row j is eigenvector j
  if (n == 0) return {std::vector<double>{}, std::move(vt)};

  double total_norm = 0.0;
  for (double x : a.data()) total_norm += x * x;
  total_norm = std::sqrt(total_norm);
  const double off_tol = std::max(tol * total_norm, 1e-300);

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) s += 2.0 * a(p, q) * a(p, q);
    }
    return std::sqrt(s);
  };

  std::vector<ColumnRotation> ops;
  ops.reserve(n);
  std::vector<std::size_t> synced(n);
  std::size_t ks[kLanes] = {};

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= off_tol) break;
    for (std::size_t p = 0; p < n; ++p) {
      ops.clear();
      std::fill(synced.begin(), synced.end(), std::size_t{0});
      double* rp = row_of(a, p);
      // Rows [q, ahead) were pulled forward together with an earlier q.
      std::size_t ahead = p + 1;
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = rp[q];
        if (std::abs(apq) <= 1e-300) continue;
        if (q >= ahead) {
          ahead = std::min(q + kLanes, n);
          std::size_t count = 0;
          for (std::size_t k = q; k < ahead; ++k) ks[count++] = k;
          sync_rows(a, p, ops.data(), ks, count, synced, ops.size());
        }
        double* rq = row_of(a, q);
        replay_row(rq, p, ops.data(), synced[q], ops.size());

        const double app = rp[p];
        const double aqq = rq[q];
        // Standard stable Jacobi rotation.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Column rotation on the 2x2 entries of rows p and q, then the row
        // rotation, as the eager loop orders them.
        for (double* row : {rp, rq}) {
          const double akp = row[p];
          const double akq = row[q];
          row[p] = c * akp - s * akq;
          row[q] = s * akp + c * akq;
        }
        kernels::rotate_rows(a, p, q, c, s);
        kernels::rotate_rows(vt, p, q, c, s);
        ops.push_back({q, c, s});
        synced[q] = ops.size();
      }
      // Flush every row but p, kLanes rows at a time.
      std::size_t count = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == p || synced[k] == ops.size()) continue;
        ks[count++] = k;
        if (count == kLanes) {
          sync_rows(a, p, ops.data(), ks, count, synced, ops.size());
          count = 0;
        }
      }
      sync_rows(a, p, ops.data(), ks, count, synced, ops.size());
    }
  }

  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = a(i, i);

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return values[x] > values[y]; });

  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = values[order[j]];
    const double* col = row_of(vt, order[j]);
    for (std::size_t i = 0; i < n; ++i) sorted_vectors(i, j) = col[i];
  }
  return {std::move(sorted_values), std::move(sorted_vectors)};
}

}  // namespace effitest::linalg
