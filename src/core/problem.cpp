#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace effitest::core {

int TunableBuffer::nearest_step(double x) const {
  if (steps < 2) return 0;
  const int k = static_cast<int>(std::lround((x - r) / step_size()));
  return std::clamp(k, 0, steps - 1);
}

Problem::Problem(const timing::CircuitModel& model, double reference_period,
                 int steps)
    : model_(&model) {
  if (steps < 2) throw std::invalid_argument("Problem: steps must be >= 2");
  reference_period_ =
      reference_period > 0.0 ? reference_period : model.nominal_critical_delay();
  // Paper setting ([19]): the maximum allowed buffer range is 1/8 of the
  // original clock period; we center it on zero (delays are relative to the
  // reference clock and may be negative).
  const double tau = reference_period_ / 8.0;
  for (int ff : model.buffered_ffs()) {
    buffers_.push_back(TunableBuffer{ff, -tau / 2.0, tau, steps});
    step_sizes_.push_back(buffers_.back().step_size());
  }
  const auto& pairs = model.pairs();
  src_buf_.resize(pairs.size());
  dst_buf_.resize(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    src_buf_[p] = model.buffer_index(pairs[p].src_ff);
    dst_buf_[p] = model.buffer_index(pairs[p].dst_ff);
  }
}

double Problem::pair_skew(std::size_t p, std::span<const int> steps) const {
  double skew = 0.0;
  if (src_buf_[p] >= 0) {
    skew += buffers_[static_cast<std::size_t>(src_buf_[p])].value(
        steps[static_cast<std::size_t>(src_buf_[p])]);
  }
  if (dst_buf_[p] >= 0) {
    skew -= buffers_[static_cast<std::size_t>(dst_buf_[p])].value(
        steps[static_cast<std::size_t>(dst_buf_[p])]);
  }
  return skew;
}

std::vector<int> Problem::neutral_steps() const {
  std::vector<int> out(buffers_.size());
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    out[b] = buffers_[b].neutral_step();
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> map_edge_exclusions(
    const timing::CircuitModel& model,
    std::span<const std::pair<int, int>> edges,
    std::span<const std::pair<std::size_t, std::size_t>> exclusive_pairs) {
  std::map<std::pair<int, int>, std::size_t> pair_id;
  for (std::size_t p = 0; p < model.num_pairs(); ++p) {
    pair_id.emplace(
        std::make_pair(model.pairs()[p].src_ff, model.pairs()[p].dst_ff), p);
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const auto& [ei, ej] : exclusive_pairs) {
    if (ei >= edges.size() || ej >= edges.size()) continue;
    const auto it_i = pair_id.find(edges[ei]);
    const auto it_j = pair_id.find(edges[ej]);
    if (it_i == pair_id.end() || it_j == pair_id.end()) continue;
    out.emplace_back(it_i->second, it_j->second);
  }
  return out;
}

}  // namespace effitest::core
