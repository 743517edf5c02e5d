#include "census/census.h"

#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "census/approx.h"
#include "census/engines.h"
#include "census/fastpath/fastpath.h"
#include "census/planner.h"
#include "census/pmi.h"
#include "match/cn_matcher.h"
#include "match/gql_matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/timer.h"

namespace egocensus {

const char* CensusAlgorithmName(CensusAlgorithm algorithm) {
  switch (algorithm) {
    case CensusAlgorithm::kAuto:
      return "AUTO";
    case CensusAlgorithm::kNdBas:
      return "ND-BAS";
    case CensusAlgorithm::kNdPvot:
      return "ND-PVOT";
    case CensusAlgorithm::kNdDiff:
      return "ND-DIFF";
    case CensusAlgorithm::kPtBas:
      return "PT-BAS";
    case CensusAlgorithm::kPtOpt:
      return "PT-OPT";
    case CensusAlgorithm::kPtRnd:
      return "PT-RND";
  }
  return "?";
}

const char* CensusAlgorithmFlag(CensusAlgorithm algorithm) {
  switch (algorithm) {
    case CensusAlgorithm::kAuto:
      return "auto";
    case CensusAlgorithm::kNdBas:
      return "nd-bas";
    case CensusAlgorithm::kNdPvot:
      return "nd-pvot";
    case CensusAlgorithm::kNdDiff:
      return "nd-diff";
    case CensusAlgorithm::kPtBas:
      return "pt-bas";
    case CensusAlgorithm::kPtOpt:
      return "pt-opt";
    case CensusAlgorithm::kPtRnd:
      return "pt-rnd";
  }
  return "?";
}

const char* FastPathModeName(FastPathMode mode) {
  switch (mode) {
    case FastPathMode::kAuto:
      return "auto";
    case FastPathMode::kForce:
      return "force";
    case FastPathMode::kOff:
      return "off";
  }
  return "?";
}

const char* FocalStateName(FocalState state) {
  switch (state) {
    case FocalState::kPending:
      return "pending";
    case FocalState::kComplete:
      return "complete";
    case FocalState::kApprox:
      return "approx";
  }
  return "?";
}

std::vector<NodeId> AllNodes(const Graph& graph) {
  std::vector<NodeId> nodes(graph.NumNodes());
  std::iota(nodes.begin(), nodes.end(), 0u);
  return nodes;
}

namespace internal {

void InitFocalState(const CensusContext& ctx, CensusResult* result) {
  result->focal_state.assign(ctx.graph->NumNodes(), FocalState::kPending);
}

void MarkAllFocal(const CensusContext& ctx, CensusResult* result,
                  FocalState state) {
  // egolint: no-checkpoint(O(|focal|) state-flag stores, no match work)
  for (NodeId n : ctx.focal) result->focal_state[n] = state;
}

void FinishExecStatus(const CensusContext& ctx, const char* engine,
                      CensusResult* result) {
  Governor* gov = ctx.governor();
  if (gov == nullptr) return;
  result->exec_status = gov->ToStatus(engine);
}

MatchSet FindMatchesTimed(const CensusContext& ctx, CensusStats* stats,
                          bool* interrupted) {
  EGO_SPAN("census/match");
  Timer timer;
  MatchSet matches(ctx.pattern->NumNodes());
  MatchOptions match_options;
  match_options.governor = ctx.governor();
  bool was_interrupted = false;
  if (ctx.options->use_gql_matcher) {
    GqlMatcher matcher(ctx.options->profile_index);
    matches = matcher.FindMatches(*ctx.graph, *ctx.pattern, match_options);
    was_interrupted = matcher.interrupted();
  } else {
    CnMatcher matcher(ctx.options->profile_index);
    matches = matcher.FindMatches(*ctx.graph, *ctx.pattern, match_options);
    was_interrupted = matcher.interrupted();
  }
  if (interrupted != nullptr) *interrupted = was_interrupted;
  stats->match_seconds = timer.ElapsedSeconds();
  stats->num_matches = matches.size();
  return matches;
}

}  // namespace internal

[[nodiscard]] Result<CensusResult> RunCensus(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> focal,
                               const CensusOptions& options) {
  if (!pattern.prepared()) {
    return Status::InvalidArgument("pattern must be prepared");
  }
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  auto anchors = ResolveAnchorNodes(pattern, options.subpattern);
  if (!anchors.ok()) return anchors.status();

  std::vector<char> is_focal(graph.NumNodes(), 0);
  // egolint: no-checkpoint(O(|focal|) validation pass before engines run)
  for (NodeId n : focal) {
    if (n >= graph.NumNodes()) {
      return Status::OutOfRange("focal node out of range");
    }
    is_focal[n] = 1;
  }

  internal::CensusContext ctx;
  ctx.graph = &graph;
  ctx.pattern = &pattern;
  ctx.focal = focal;
  ctx.is_focal = &is_focal;
  ctx.anchor_nodes = std::move(anchors).value();
  ctx.options = &options;

  // Engine resolution, the one place it happens: kForce runs the fast path
  // whatever the algorithm, kAuto asks the planner (census/planner.h), and
  // any other algorithm runs exactly that engine. The decision is
  // observable (routed-vs-generic counters, per-shape and per-reason
  // breakdowns, per-engine plan counters).
  Plan plan;
  if (options.fast_path == FastPathMode::kForce) {
    internal::FastPathDecision route =
        internal::DecideFastPath(graph, pattern, options);
    if (!route.routed) {
      return Status::InvalidArgument(
          std::string("fast-path forced but census is ineligible: ") +
          route.reject_reason);
    }
    plan.engine = PlanEngine::kFastPath;
    plan.shape = route.shape;
  } else if (options.algorithm == CensusAlgorithm::kAuto) {
    EGO_SPAN("census/plan");
    plan = ChoosePlan(graph, pattern, focal, options);
  } else {
    plan.fast_path_skip = options.fast_path == FastPathMode::kOff
                              ? "fast path off"
                              : "explicit algorithm";
  }
  const bool fast = plan.engine == PlanEngine::kFastPath;
  const CensusAlgorithm algorithm =
      options.algorithm == CensusAlgorithm::kAuto ? plan.algorithm()
                                                  : options.algorithm;
  const char* plan_name = fast ? PlanEngineName(PlanEngine::kFastPath)
                               : CensusAlgorithmFlag(algorithm);
  if (obs::Enabled()) {
    obs::CounterAdd(std::string("census/plan/") + plan_name, 1);
    if (fast) {
      obs::CounterAdd("census/fastpath/routed", 1);
      obs::CounterAdd(
          std::string("census/fastpath/shape/") + ShapeName(plan.shape.id), 1);
      obs::HistogramRecord("census/fastpath/routed_focal", focal.size());
    } else {
      obs::CounterAdd("census/fastpath/generic", 1);
      obs::CounterAdd(
          std::string("census/fastpath/skip/") + plan.fast_path_skip, 1);
    }
  }

  // The counting phase is embarrassingly parallel across focal nodes /
  // match clusters; the pool lives for exactly one census so a caller's
  // requested width (including widths beyond the core count, which tests
  // use to widen interleavings) is honored exactly.
  const unsigned num_threads =
      ThreadPool::ResolveNumThreads(options.num_threads);
  std::optional<ThreadPool> pool;
  if (num_threads > 1) {
    pool.emplace(num_threads);
    ctx.pool = &*pool;
  }

  EGO_SPAN("census/run", focal.size());
  auto finish = [&](CensusResult result) -> Result<CensusResult> {
    result.plan = plan_name;
    result.stats.threads_used = num_threads;
    result.stats.pattern_nodes =
        static_cast<std::uint32_t>(pattern.NumNodes());
    result.stats.k = options.k;
    if (options.governor != nullptr) {
      EGO_HIST_RECORD("exec/checkpoints_per_census",
                      options.governor->checkpoints());
    }
    // Graceful degradation: a deadline/budget stop (not an explicit cancel
    // — the user asked out) re-covers the unfinished focal nodes with the
    // sampling-based approximate census so the result has estimates
    // everywhere instead of holes. Completed nodes keep their exact counts;
    // exec_status still reports the stop so callers know what happened.
    if (!result.exec_status.ok() &&
        result.exec_status.code() != StatusCode::kCancelled &&
        options.degrade_to_approx) {
      std::vector<NodeId> pending;
      // egolint: no-checkpoint(O(|focal|) scan collecting incomplete nodes)
      for (NodeId n : focal) {
        if (result.focal_state[n] != FocalState::kComplete) pending.push_back(n);
      }
      if (!pending.empty()) {
        ApproximateCensusOptions approx_options;
        approx_options.k = options.k;
        approx_options.subpattern = options.subpattern;
        approx_options.sample_rate = options.degrade_sample_rate;
        approx_options.seed = options.seed;
        auto approx =
            RunApproximateCensus(graph, pattern, pending, approx_options);
        if (approx.ok()) {
          // egolint: no-checkpoint(O(|pending|) copy of finished estimates)
          for (NodeId n : pending) {
            result.counts[n] = static_cast<std::uint64_t>(
                std::llround(approx->estimates[n]));
            result.focal_state[n] = FocalState::kApprox;
          }
          // Stats now cover both passes (exact prefix + degraded tail).
          result.stats.Merge(approx->stats);
          EGO_COUNTER_ADD("exec/degraded_focal", pending.size());
        }
      }
    }
    if (obs::Enabled()) {
      // Route the per-census totals through the registry under
      // census/<engine>/ so repeated censuses accumulate and the
      // exporters see the same numbers CensusStats reports.
      const std::string prefix =
          "census/" +
          (fast ? std::string("fastpath")
                : ToLower(CensusAlgorithmName(algorithm))) +
          "/";
      const CensusStats& s = result.stats;
      obs::CounterAdd(prefix + "runs", 1);
      obs::CounterAdd(prefix + "num_matches", s.num_matches);
      obs::CounterAdd(prefix + "nodes_expanded", s.nodes_expanded);
      obs::CounterAdd(prefix + "reinsertions", s.reinsertions);
      obs::CounterAdd(prefix + "containment_checks", s.containment_checks);
      obs::GaugeMax(prefix + "peak_neighborhood", s.peak_neighborhood);
      obs::GaugeMax(prefix + "threads_used", s.threads_used);
    }
    return result;
  };
  if (fast) {
    CensusResult result = internal::RunFastPath(ctx, plan.shape);
    result.stats.fastpath_routed = 1;
    return finish(std::move(result));
  }
  switch (algorithm) {
    case CensusAlgorithm::kAuto:
      break;  // resolved above
    case CensusAlgorithm::kNdBas:
      return finish(internal::RunNdBas(ctx));
    case CensusAlgorithm::kNdPvot:
      return finish(internal::RunNdPvot(ctx));
    case CensusAlgorithm::kNdDiff:
      return finish(internal::RunNdDiff(ctx));
    case CensusAlgorithm::kPtBas:
      return finish(internal::RunPtBas(ctx));
    case CensusAlgorithm::kPtOpt:
    case CensusAlgorithm::kPtRnd:
      return finish(internal::RunPtOpt(ctx));
  }
  return Status::Internal("unknown census algorithm");
}

}  // namespace egocensus
