#ifndef EGOCENSUS_CENSUS_PLANNER_H_
#define EGOCENSUS_CENSUS_PLANNER_H_

// Cost-based engine choice for CensusAlgorithm::kAuto (DESIGN.md, "Engine
// selection"). RunCensus resolves kAuto here and nowhere else.
//
// The planner costs four candidates and runs the cheapest:
//  * the combinatorial fast path (when DecideFastPath says eligible) and
//    ND-BAS scale with the focal nodes' ego networks: their cost is summed
//    over the focal set from degrees (k <= 2) or a seeded BFS sample
//    (k >= 3);
//  * ND-PVOT and PT-BAS first match the pattern in the whole graph: their
//    cost starts with a match estimate built from label frequencies,
//    degree moments and a wedge-closure rate, all taken from a seeded
//    sample of edge endpoints.
// This is the paper's Section IV trade-off (node-driven wins on
// non-selective patterns and small focal sets, pattern-driven on selective
// patterns over the whole graph) made explicit, after EAGr's per-node
// push/pull choice from a cost model. PT-OPT, PT-RND and ND-DIFF are never
// chosen: they stay available as explicit engines.

#include <array>
#include <cstdint>
#include <span>

#include "census/census.h"
#include "pattern/shape.h"

namespace egocensus {

/// The engines the planner chooses between, in cost-array order.
enum class PlanEngine : std::uint8_t { kFastPath = 0, kNdBas, kNdPvot, kPtBas };

inline constexpr std::size_t kNumPlanEngines = 4;

/// Lower-case engine name as the CLI and the wire spell it ("fastpath",
/// "nd-bas", "nd-pvot", "pt-bas").
const char* PlanEngineName(PlanEngine engine);

struct Plan {
  PlanEngine engine = PlanEngine::kNdBas;

  /// The fast-path shape when engine == kFastPath.
  PatternShape shape;

  /// Estimated cost of each candidate in nanosecond-scale units; negative
  /// when the candidate was not eligible.
  std::array<double, kNumPlanEngines> cost{};

  /// Why the fast path was not chosen (static string; empty when it was).
  const char* fast_path_skip = "";

  /// The generic algorithm to dispatch when engine != kFastPath.
  CensusAlgorithm algorithm() const;
};

/// Chooses the cheapest engine for this census. Deterministic (sampling is
/// seeded from options.seed) and O(|focal| * avg degree) at k <= 2; honors
/// options.fast_path == kOff, the GQL matcher and COUNTSP (both rule out
/// the fast path). Does not run any engine.
Plan ChoosePlan(const Graph& graph, const Pattern& pattern,
                std::span<const NodeId> focal, const CensusOptions& options);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_PLANNER_H_
