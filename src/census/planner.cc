#include "census/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <variant>
#include <vector>

#include "census/fastpath/fastpath.h"
#include "census/fastpath/kernels.h"
#include "census/pmi.h"
#include "graph/bfs.h"
#include "util/rng.h"

namespace egocensus {
namespace {

// Cost constants, in nanoseconds per unit of work, fitted on seeded
// preferential-attachment graphs (CHANGES.md records the calibration
// cases). Only their ratios matter for the choice.
constexpr double kEgoScanNs = 3.0;       // fast path: one adjacency entry
                                         // scanned while building an ego
constexpr double kEgoNodeNs = 6.0;       // one ego node, per pattern node
constexpr double kFastTriangleNs = 2.2;  // fast path: per-ego intersection
constexpr double kFastFourNs = 6.0;      // fast path: 4-node kernel work
constexpr double kExtractNs = 10.0;      // ND-BAS: induced-subgraph copy
                                         // per ego adjacency entry
constexpr double kEgoSearchNs = 6.0;     // ND-BAS: matcher search per unit
constexpr double kGlobalNodeNs = 25.0;   // global match: per graph node and
                                         // pattern node (candidate maps)
constexpr double kGlobalScanNs = 29.0;   // global match: per candidate
                                         // adjacency entry and pattern edge
constexpr double kWedgeNs = 8.0;         // global match: per candidate wedge
constexpr double kMatchNs = 60.0;        // per match found, per pattern node
constexpr double kBfsNs = 8.0;           // PT-BAS: one BFS visit around an
                                         // anchor
constexpr double kEgoBfsNs = 30.0;       // ND-PVOT: one ego BFS visit and
                                         // its pivot-index probe
constexpr double kCheckNs = 1.0;         // one containment check

constexpr int kDegreeSamples = 256;          // sampled edge endpoints
constexpr int kLabelSamples = 256;           // nodes for label frequency
constexpr int kBfsSamples = 8;               // sampled egos at k >= 3
constexpr std::size_t kFocalSamples = 2048;  // focal nodes summed at k <= 2
constexpr int kMaxFalling = 8;               // falling moments kept
// Wedges sampled for the closure rate: more when the census is big.
constexpr int kMinWedgeSamples = 256;
constexpr int kMaxWedgeSamples = 8192;
constexpr double kWedgeSampleNs = 150;  // cost of one wedge sample

/// Degree moments from a seeded sample of edge endpoints (an endpoint is
/// a node drawn with probability proportional to its degree).
struct DegreeSample {
  double nodes = 0;
  double endpoints = 0;  // 2|E|
  /// falling[j] = E_endpoint[(d - 1)_j], the expected number of ordered
  /// j-tuples of further neighbors seen from a node reached by an edge.
  std::array<double, kMaxFalling + 1> falling{};

  /// Mean degree of a node reached by following an edge.
  double Excess() const { return 1 + falling[1]; }
};

DegreeSample SampleDegrees(const Graph& graph, std::uint64_t seed) {
  DegreeSample s;
  s.nodes = graph.NumNodes();
  s.endpoints = 2.0 * graph.NumEdges();
  s.falling[0] = 1;
  if (graph.NumEdges() == 0) return s;
  Rng rng(seed ^ 0x51a7e5ULL);
  for (int i = 0; i < kDegreeSamples; ++i) {
    auto [u, v] = graph.EdgeEndpoints(
        static_cast<EdgeId>(rng.NextBounded(graph.NumEdges())));
    const double x = static_cast<double>(graph.Degree(i % 2 == 0 ? u : v)) - 1;
    double term = 1;
    for (int j = 1; j <= kMaxFalling; ++j) {
      term *= std::max(0.0, x - (j - 1));
      s.falling[j] += term / kDegreeSamples;
    }
  }
  return s;
}

/// Fraction of wedges that close into a triangle, from `samples` seeded
/// wedges. Each is drawn at an edge endpoint and weighted by d - 1, which
/// makes the rate a per-wedge one.
double SampleClosure(const Graph& graph, std::uint64_t seed, int samples) {
  if (graph.NumEdges() == 0) return 0;
  Rng rng(seed ^ 0xc105edULL);
  double closed = 0, wedges = 0;
  for (int i = 0; i < samples; ++i) {
    auto [u, v] = graph.EdgeEndpoints(
        static_cast<EdgeId>(rng.NextBounded(graph.NumEdges())));
    std::span<const NodeId> nbrs = graph.Neighbors(i % 2 == 0 ? u : v);
    if (nbrs.size() < 2) continue;
    std::size_t a = rng.NextBounded(nbrs.size());
    std::size_t b = rng.NextBounded(nbrs.size() - 1);
    if (b >= a) ++b;
    const double weight = static_cast<double>(nbrs.size()) - 1;
    wedges += weight;
    if (graph.HasUndirectedEdge(nbrs[a], nbrs[b])) closed += weight;
  }
  // Half a closed wedge of prior keeps an unlucky sample from reading 0.
  return (closed + 0.5) / (wedges + 1.0);
}

/// Label frequencies from evenly spaced nodes: deterministic and cheap.
std::vector<double> SampleLabels(const Graph& graph) {
  std::vector<double> freq(graph.NumLabels(), 0);
  const std::uint32_t samples =
      std::min<std::uint32_t>(graph.NumNodes(), kLabelSamples);
  for (std::uint32_t i = 0; i < samples; ++i) {
    NodeId n = static_cast<NodeId>(static_cast<std::uint64_t>(i) *
                                   graph.NumNodes() / samples);
    freq[graph.label(n)] += 1.0 / samples;
  }
  return freq;
}

/// Selectivity of one pattern node: its label's frequency, halved per
/// predicate that mentions it.
double NodeSelectivity(const Pattern& pattern, int v,
                       const std::vector<double>& label_freq,
                       double num_nodes) {
  double f = 1;
  if (auto label = pattern.LabelConstraint(v); label.has_value()) {
    f = *label < label_freq.size() ? label_freq[*label] : 0;
    f = std::max(f, 1.0 / std::max(1.0, num_nodes));
  }
  auto mentions = [v](const PredicateOperand& operand) {
    const NodeAttrRef* ref = std::get_if<NodeAttrRef>(&operand);
    return ref != nullptr && ref->node == v;
  };
  for (const PatternPredicate& p : pattern.Predicates()) {
    if (mentions(p.lhs) || mentions(p.rhs)) f *= 0.5;
  }
  return f;
}

/// Expected number of matches in the whole graph: embeddings of a BFS
/// spanning tree of the pattern under the sampled degree moments, times
/// the closure rate per non-tree edge, times node selectivities, divided
/// by the pattern's automorphisms.
double EstimateMatches(const Pattern& pattern, const DegreeSample& s,
                       double closure,
                       const std::vector<double>& selectivity) {
  const int size = pattern.NumNodes();
  std::vector<int> parent(size, -2);  // -2 unvisited, -1 root
  std::vector<int> children(size, 0);
  double embeddings = 1;
  int tree_edges = 0;
  for (int start = 0; start < size; ++start) {
    if (parent[start] != -2) continue;
    // Root each component at its highest-degree node.
    std::vector<int> component = {start};
    parent[start] = -1;
    for (std::size_t i = 0; i < component.size(); ++i) {
      for (const auto& adj : pattern.Neighbors(component[i])) {
        if (parent[adj.node] == -2) {
          parent[adj.node] = -1;
          component.push_back(adj.node);
        }
      }
    }
    int root = start;
    for (int v : component) {
      if (pattern.Neighbors(v).size() > pattern.Neighbors(root).size()) {
        root = v;
      }
    }
    for (int v : component) parent[v] = -2;
    std::vector<int> queue = {root};
    parent[root] = -1;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (const auto& adj : pattern.Neighbors(queue[i])) {
        if (parent[adj.node] != -2) continue;
        parent[adj.node] = queue[i];
        ++children[queue[i]];
        ++tree_edges;
        queue.push_back(adj.node);
      }
    }
    const int q = std::min(children[root], kMaxFalling + 1);
    embeddings *= q == 0 ? s.nodes : s.endpoints * s.falling[q - 1];
    for (int v : queue) {
      if (v != root) embeddings *= s.falling[std::min(children[v], kMaxFalling)];
    }
  }
  for (double f : selectivity) embeddings *= f;
  int pattern_edges = 0;
  for (int v = 0; v < size; ++v) {
    pattern_edges += static_cast<int>(pattern.Neighbors(v).size());
  }
  pattern_edges /= 2;
  // Closing edges are positively correlated (a closed triangle makes the
  // next closure likelier), so later ones cost less than the first.
  for (int j = 1; j <= pattern_edges - tree_edges; ++j) {
    embeddings *= std::pow(closure, j == 1 ? 1.0 : 2.0 / 3.0);
  }
  return embeddings / static_cast<double>(
                          std::max<std::size_t>(1, pattern.NumAutomorphisms()));
}

/// Work of the per-focal engines summed over the focal set.
struct EgoWork {
  double nodes = 0;   // sum of |S(n, k)|
  double scan = 0;    // adjacency entries scanned while building the egos
  double kernel = 0;  // sum over B(n, k-1) of deg^2: intersection work
};

/// `excess` (the mean degree of an edge endpoint) sizes the second ring at
/// k = 2.
EgoWork MeasureEgos(const Graph& graph, std::span<const NodeId> focal,
                    std::uint32_t k, double excess, std::uint64_t seed) {
  EgoWork w;
  const double num_nodes = graph.NumNodes();
  const double endpoints = 2.0 * graph.NumEdges();
  if (k == 0) {
    w.nodes = w.scan = static_cast<double>(focal.size());
    return w;
  }
  if (k <= 2) {
    // Large focal sets are summed over an evenly spaced subset, which keeps
    // planning a small fraction of even the cheapest census.
    const std::size_t stride = (focal.size() + kFocalSamples - 1) / kFocalSamples;
    double scale = 0;
    // egolint: no-checkpoint(at most kFocalSamples focal nodes, O(avg degree) each, while planning)
    for (std::size_t i = 0; i < focal.size(); i += stride) {
      const NodeId n = focal[i];
      scale += 1;
      std::span<const NodeId> nbrs = graph.Neighbors(n);
      const double d = static_cast<double>(nbrs.size());
      double nbr_deg = 0, nbr_deg2 = 0;
      for (NodeId v : nbrs) {
        const double dv = graph.Degree(v);
        nbr_deg += dv;
        nbr_deg2 += dv * dv;
      }
      if (k == 1) {
        w.nodes += d + 1;
        w.scan += d + nbr_deg;
        w.kernel += d * d;
      } else {
        const double ring2 = std::min(num_nodes, std::max(0.0, nbr_deg - d));
        w.nodes += std::min(num_nodes, 1 + d + ring2);
        w.scan += std::min(endpoints, d + nbr_deg + ring2 * excess);
        w.kernel += d * d + nbr_deg2;
      }
    }
    scale = scale > 0 ? static_cast<double>(focal.size()) / scale : 0;
    w.nodes *= scale;
    w.scan *= scale;
    w.kernel *= scale;
    return w;
  }
  // k >= 3: a seeded sample of real BFS balls, scaled to the focal set.
  Rng rng(seed ^ 0xbf5ULL);
  BfsWorkspace bfs;
  const int samples =
      static_cast<int>(std::min<std::size_t>(focal.size(), kBfsSamples));
  // egolint: no-checkpoint(at most kBfsSamples BFS runs while planning)
  for (int i = 0; i < samples; ++i) {
    NodeId n = focal[rng.NextBounded(focal.size())];
    const std::vector<NodeId>& ball = bfs.Run(graph, n, k);
    w.nodes += static_cast<double>(ball.size());
    for (NodeId v : ball) {
      const double dv = graph.Degree(v);
      w.scan += dv;
      w.kernel += dv * dv;
    }
  }
  const double scale =
      samples == 0 ? 0 : static_cast<double>(focal.size()) / samples;
  w.nodes *= scale;
  w.scan *= scale;
  w.kernel *= scale;
  return w;
}

}  // namespace

CensusAlgorithm Plan::algorithm() const {
  switch (engine) {
    case PlanEngine::kNdPvot:
      return CensusAlgorithm::kNdPvot;
    case PlanEngine::kPtBas:
      return CensusAlgorithm::kPtBas;
    case PlanEngine::kFastPath:
    case PlanEngine::kNdBas:
      break;
  }
  return CensusAlgorithm::kNdBas;
}

const char* PlanEngineName(PlanEngine engine) {
  if (engine == PlanEngine::kFastPath) return "fastpath";
  Plan plan;
  plan.engine = engine;
  return CensusAlgorithmFlag(plan.algorithm());
}

Plan ChoosePlan(const Graph& graph, const Pattern& pattern,
                std::span<const NodeId> focal, const CensusOptions& options) {
  Plan plan;
  internal::FastPathDecision route;
  if (options.fast_path == FastPathMode::kOff) {
    plan.fast_path_skip = "fast path off";
  } else {
    route = internal::DecideFastPath(graph, pattern, options);
    if (!route.routed) plan.fast_path_skip = route.reject_reason;
  }

  const double num_nodes = graph.NumNodes();
  const double size = pattern.NumNodes();
  // Degree moments matter at k >= 2 (second-ring sizes) and for the
  // global engines; a k = 1 census over a small focal set never needs them.
  std::optional<DegreeSample> degrees;
  if (options.k >= 2) degrees = SampleDegrees(graph, options.seed);
  const EgoWork ego =
      MeasureEgos(graph, focal, options.k,
                  degrees.has_value() ? degrees->Excess() : 0, options.seed);
  std::vector<double> label_freq;
  for (int v = 0; v < pattern.NumNodes() && label_freq.empty(); ++v) {
    if (pattern.LabelConstraint(v).has_value()) label_freq = SampleLabels(graph);
  }
  std::vector<double> selectivity(pattern.NumNodes());
  double pattern_edges = 0;
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    selectivity[v] = NodeSelectivity(pattern, v, label_freq, num_nodes);
    pattern_edges += static_cast<double>(pattern.Neighbors(v).size()) / 2;
  }
  // The matcher starts from the most selective nodes.
  std::vector<double> sorted = selectivity;
  std::sort(sorted.begin(), sorted.end());
  const double first_pair = sorted.empty() ? 1
                            : sorted.size() == 1 ? sorted[0]
                                                 : sorted[0] * sorted[1];
  const bool whole_pattern = options.subpattern.empty();

  // Per-focal engines: everything they do is inside the focal egos.
  if (route.routed) {
    double kernel = 0;
    switch (internal::fastpath::LevelForShape(route.shape)) {
      case internal::fastpath::CountLevel::kNodes:
      case internal::fastpath::CountLevel::kDegrees:
        break;
      case internal::fastpath::CountLevel::kTriangles:
        kernel = kFastTriangleNs * ego.kernel;
        break;
      case internal::fastpath::CountLevel::kFour:
        kernel = kFastFourNs * ego.kernel;
        break;
    }
    plan.shape = route.shape;
    plan.cost[0] = kEgoScanNs * ego.scan + kEgoNodeNs * ego.nodes + kernel;
  } else {
    plan.cost[0] = -1;
  }
  // ND-BAS enumerates the matches inside each ego: wedges at the
  // intersection level, and for four or more nodes a further factor of
  // partial matches, between 1 (cliques) and the ego degree (stars).
  const double ego_degree = ego.nodes > 0 ? ego.scan / ego.nodes : 0;
  const double deeper =
      sorted.size() >= 4 ? std::sqrt(ego_degree) * sorted[2] : 1.0;
  plan.cost[1] = kExtractNs * ego.scan + kEgoNodeNs * size * ego.nodes +
                 (pattern_edges >= 2
                      ? kEgoSearchNs * ego.kernel * first_pair * deeper
                      : 0.0);

  // Global engines first build candidate maps over the whole graph and
  // candidate-neighbor lists per pattern edge. When a per-focal engine is
  // already cheaper than that floor, their estimates stay at the floor and
  // the graph is not sampled.
  const double endpoints = 2.0 * graph.NumEdges();
  double floor = kGlobalNodeNs * size * num_nodes;
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    floor += kGlobalScanNs * selectivity[v] * endpoints *
             static_cast<double>(pattern.Neighbors(v).size());
  }
  const double best_local =
      plan.cost[0] >= 0 ? std::min(plan.cost[0], plan.cost[1]) : plan.cost[1];
  if (whole_pattern && best_local <= floor) {
    plan.cost[2] = plan.cost[3] = floor;
  } else {
    if (!degrees.has_value()) degrees = SampleDegrees(graph, options.seed);
    const DegreeSample& s = *degrees;
    // Spend about 2% of the cheapest per-focal estimate on the closure.
    const int wedge_samples = static_cast<int>(std::clamp(
        0.02 * best_local / kWedgeSampleNs, double{kMinWedgeSamples},
        double{kMaxWedgeSamples}));
    const double closure = SampleClosure(graph, options.seed, wedge_samples);
    const double matches = EstimateMatches(pattern, s, closure, selectivity);
    const auto anchors = ResolveAnchorNodes(pattern, options.subpattern);
    const double t =
        anchors.ok() ? static_cast<double>(anchors->size()) : size;

    // Global match: the floor, partial matches along the first two edges,
    // then the matches themselves.
    double global = floor;
    if (pattern_edges >= 2) {
      global += kWedgeNs * s.endpoints * s.falling[1] * first_pair;
    }
    global += kMatchNs * matches * size;

    // Anchors of a match sit on nodes with at least the pattern's degree,
    // drawn in proportion to their falling factorial: dense patterns land
    // on hubs, whose balls cover much of the graph.
    int q = 0;
    for (int v = 0; v < pattern.NumNodes(); ++v) {
      q = std::max(q, static_cast<int>(pattern.Neighbors(v).size()));
    }
    q = std::clamp(q, 1, kMaxFalling);
    // Mean degree under the (d)_q weighting.
    const double anchor_degree =
        s.falling[q - 1] > 0 ? s.falling[q] / s.falling[q - 1] + q : 1;
    // Each further ring reaches `excess` new neighbors per node, with
    // random overlap once the ball covers a good part of the graph.
    double ball = options.k == 0 ? 1 : std::min(num_nodes, 1 + anchor_degree);
    for (std::uint32_t i = 1; i < options.k && num_nodes > 0; ++i) {
      ball = num_nodes * (1 - std::exp(-ball * s.Excess() / num_nodes));
    }
    const double focal_share =
        num_nodes > 0 ? static_cast<double>(focal.size()) / num_nodes : 0;

    if (!whole_pattern) {
      // ND-BAS with a subpattern matches globally, then checks every
      // match against every focal node's ball.
      plan.cost[1] = global + kEgoBfsNs * ego.nodes +
                     kCheckNs * static_cast<double>(focal.size()) * matches * t;
    }
    plan.cost[2] = global + kEgoBfsNs * ego.nodes +
                   kCheckNs * matches * ball * focal_share * t;
    plan.cost[3] = global + kBfsNs * matches * t * ball;
  }

  // Ties go to the earlier engine in PlanEngine order: the fast path,
  // then the node-driven engines.
  std::size_t best = plan.cost[0] >= 0 ? 0 : 1;
  for (std::size_t e = best + 1; e < kNumPlanEngines; ++e) {
    if (plan.cost[e] < plan.cost[best]) best = e;
  }
  plan.engine = static_cast<PlanEngine>(best);
  if (plan.engine != PlanEngine::kFastPath && route.routed) {
    plan.fast_path_skip = "planner chose a cheaper engine";
  }
  return plan;
}

}  // namespace egocensus
