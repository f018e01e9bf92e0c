#include "scenario/circuit_catalog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "netlist/bench_parser.hpp"
#include "timing/graph.hpp"

namespace effitest::scenario {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// Short, locale-independent rendering of a scale factor ("2", "0.5").
std::string format_scale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  return buf;
}

std::size_t scaled_count(std::size_t value, double scale,
                         std::size_t floor_value) {
  const double scaled = std::round(static_cast<double>(value) * scale);
  return std::max(floor_value, static_cast<std::size_t>(scaled));
}

}  // namespace

BufferPolicy buffer_policy_from(const std::string& name) {
  if (name == "hub-count") return BufferPolicy::kHubCount;
  if (name == "worst-delay") return BufferPolicy::kWorstDelay;
  throw std::invalid_argument("unknown buffer policy \"" + name +
                              "\" (valid: hub-count worst-delay)");
}

const char* to_string(BufferPolicy policy) {
  return policy == BufferPolicy::kHubCount ? "hub-count" : "worst-delay";
}

std::vector<int> pick_buffers(const netlist::Netlist& netlist,
                              const netlist::CellLibrary& library,
                              std::size_t count, BufferPolicy policy) {
  const timing::TimingGraph graph(netlist, library);
  const auto pairs = graph.all_pair_delays();
  // Score every flip-flop as (near-critical incidence, worst delay) or
  // (worst delay only); the lexicographic sort below serves both policies.
  std::map<int, std::pair<int, double>> score;  // ff -> (count, worst)
  if (policy == BufferPolicy::kHubCount) {
    double crit = 0.0;
    for (const auto& pd : pairs) crit = std::max(crit, pd.max_delay);
    const double threshold = 0.85 * crit;
    for (const auto& pd : pairs) {
      if (pd.max_delay < threshold) continue;
      for (int ff : {pd.src_ff, pd.dst_ff}) {
        auto& [cnt, worst] = score[ff];
        ++cnt;
        worst = std::max(worst, pd.max_delay);
      }
    }
  } else {
    for (const auto& pd : pairs) {
      for (int ff : {pd.src_ff, pd.dst_ff}) {
        auto& [cnt, worst] = score[ff];
        worst = std::max(worst, pd.max_delay);
      }
    }
  }
  std::vector<std::pair<std::pair<int, double>, int>> ranked;
  ranked.reserve(score.size());
  for (const auto& [ff, s] : score) ranked.emplace_back(s, ff);
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<int> out;
  for (std::size_t i = 0; i < ranked.size() && out.size() < count; ++i) {
    out.push_back(ranked[i].second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

netlist::GeneratorSpec scaled_paper_spec(const std::string& base, double scale,
                                         std::optional<std::uint64_t> seed) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("scaled circuit: scale must be > 0, got " +
                                format_scale(scale));
  }
  netlist::GeneratorSpec spec = netlist::paper_benchmark_spec(base);
  // Bound the scaled counts before the double->size_t casts below: an
  // absurd factor must be a clear error, not an overflowing cast.
  constexpr double kMaxScaledCells = 1e8;
  const std::size_t largest =
      std::max({spec.num_flip_flops, spec.num_gates, spec.num_buffers,
                spec.num_critical_paths});
  if (static_cast<double>(largest) * scale > kMaxScaledCells) {
    throw std::invalid_argument("scaled circuit: " + base + " x" +
                                format_scale(scale) +
                                " exceeds 1e8 cells; lower the scale");
  }
  spec.name = base + "@x" + format_scale(scale);
  spec.num_flip_flops = scaled_count(spec.num_flip_flops, scale, 4);
  spec.num_gates = scaled_count(spec.num_gates, scale, 8);
  spec.num_buffers = std::min(scaled_count(spec.num_buffers, scale, 1),
                              spec.num_flip_flops);
  spec.num_critical_paths = scaled_count(spec.num_critical_paths, scale, 1);
  if (seed) spec.seed = *seed;
  return spec;
}

PreparedCircuit::PreparedCircuit(
    std::string name_in, netlist::Netlist netlist_in,
    netlist::CellLibrary library_in, std::vector<int> buffered_ffs_in,
    const timing::ModelOptions& model_options,
    std::vector<std::pair<int, int>> critical_edges_in,
    std::vector<std::pair<std::size_t, std::size_t>> exclusive_edge_pairs_in)
    : name(std::move(name_in)),
      netlist(std::move(netlist_in)),
      library(std::move(library_in)),
      buffered_ffs(std::move(buffered_ffs_in)),
      model(netlist, library, buffered_ffs, model_options),
      problem(model),
      exclusions(core::map_edge_exclusions(model, critical_edges_in,
                                           exclusive_edge_pairs_in)) {}

std::shared_ptr<CircuitCatalog> CircuitCatalog::make_paper() {
  auto catalog = std::make_shared<CircuitCatalog>();
  for (const netlist::GeneratorSpec& spec : netlist::paper_benchmark_specs()) {
    catalog->add(spec.name, PaperCircuit{spec.name, std::nullopt});
  }
  for (const netlist::GeneratorSpec& spec :
       netlist::extended_benchmark_specs()) {
    catalog->add(spec.name, PaperCircuit{spec.name, std::nullopt});
  }
  return catalog;
}

std::shared_ptr<const CircuitCatalog> CircuitCatalog::shared_paper() {
  static const std::shared_ptr<const CircuitCatalog> instance = make_paper();
  return instance;
}

void CircuitCatalog::add(std::string name, CircuitSpec spec) {
  if (name.empty()) {
    throw std::invalid_argument("CircuitCatalog: circuit name is empty");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (specs_.count(name) != 0) {
    throw std::invalid_argument("CircuitCatalog: circuit \"" + name +
                                "\" is already registered");
  }
  order_.push_back(name);
  specs_.emplace(std::move(name), std::move(spec));
}

bool CircuitCatalog::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return specs_.count(name) != 0;
}

std::vector<std::string> CircuitCatalog::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

CircuitSpec CircuitCatalog::spec(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = specs_.find(name);
  if (it == specs_.end()) throw std::invalid_argument(unknown_message(name));
  return it->second;
}

std::string CircuitCatalog::describe(const std::string& name) const {
  return std::visit(
      Overloaded{
          [](const PaperCircuit& p) {
            std::string out = "paper benchmark " + p.benchmark;
            if (p.seed) out += " (seed " + std::to_string(*p.seed) + ")";
            return out;
          },
          [](const ScaledCircuit& s) {
            std::string out =
                "scaled " + s.base + " x" + format_scale(s.scale);
            if (s.seed) out += " (seed " + std::to_string(*s.seed) + ")";
            return out;
          },
          [](const netlist::GeneratorSpec& g) {
            return "generator (ns=" + std::to_string(g.num_flip_flops) +
                   " ng=" + std::to_string(g.num_gates) +
                   " nb=" + std::to_string(g.num_buffers) +
                   " np=" + std::to_string(g.num_critical_paths) +
                   " seed=" + std::to_string(g.seed) + ")";
          },
          [](const BenchCircuit& b) {
            std::string out = ".bench import " + b.path + " (buffers=";
            out += b.num_buffers ? std::to_string(*b.num_buffers)
                                 : std::string("auto");
            out += ", policy=";
            out += to_string(b.policy);
            out += ")";
            return out;
          },
      },
      spec(name));
}

std::string CircuitCatalog::unknown_message(const std::string& name) const {
  // Callers hold mutex_ (order_ is append-only under it).
  std::string msg = "unknown circuit \"" + name + "\" (catalog:";
  for (const std::string& n : order_) msg += ' ' + n;
  msg += ')';
  return msg;
}

std::shared_ptr<const PreparedCircuit> CircuitCatalog::resolve(
    const std::string& name, double random_inflation) const {
  char key_suffix[48];
  std::snprintf(key_suffix, sizeof(key_suffix), "\x1f%.17g", random_inflation);
  const std::string key = name + key_suffix;

  std::shared_future<Prepared> future;
  std::promise<Prepared> promise;
  CircuitSpec spec;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto sit = specs_.find(name);
    if (sit == specs_.end()) {
      throw std::invalid_argument("CircuitCatalog: " + unknown_message(name));
    }
    const auto cit = cache_.find(key);
    if (cit != cache_.end()) {
      future = cit->second;
    } else {
      future = promise.get_future().share();
      cache_.emplace(key, future);
      spec = sit->second;
      builder = true;
    }
  }
  if (builder) {
    try {
      promise.set_value(build(name, spec, random_inflation));
    } catch (...) {
      // Evict first so a later resolve can retry (e.g. the .bench file
      // appears); every caller already waiting still sees the exception.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        cache_.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

CircuitCatalog::Prepared CircuitCatalog::build(const std::string& name,
                                               const CircuitSpec& spec,
                                               double random_inflation) const {
  timing::ModelOptions model_options;
  model_options.random_inflation = random_inflation;

  const auto from_generated = [&](const netlist::GeneratorSpec& g) {
    netlist::GeneratedCircuit gen = netlist::generate_circuit(g);
    return std::make_shared<const PreparedCircuit>(
        name, std::move(gen.netlist), netlist::CellLibrary::standard(),
        std::move(gen.buffered_ffs), model_options,
        std::move(gen.critical_edges), std::move(gen.exclusive_edge_pairs));
  };

  return std::visit(
      Overloaded{
          [&](const PaperCircuit& p) {
            netlist::GeneratorSpec g = netlist::paper_benchmark_spec(
                p.benchmark);
            if (p.seed) g.seed = *p.seed;
            return from_generated(g);
          },
          [&](const ScaledCircuit& s) {
            return from_generated(scaled_paper_spec(s.base, s.scale, s.seed));
          },
          [&](const netlist::GeneratorSpec& g) { return from_generated(g); },
          [&](const BenchCircuit& b) {
            netlist::Netlist nl = netlist::parse_bench_file(b.path);
            netlist::CellLibrary library = netlist::CellLibrary::standard();
            const std::size_t nb = b.num_buffers.value_or(
                std::max<std::size_t>(1, nl.num_flip_flops() / 100));
            std::vector<int> buffers =
                pick_buffers(nl, library, nb, b.policy);
            return std::make_shared<const PreparedCircuit>(
                name, std::move(nl), std::move(library), std::move(buffers),
                model_options);
          },
      },
      spec);
}

}  // namespace effitest::scenario
