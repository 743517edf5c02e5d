#include "census/fastpath/fastpath.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "census/fastpath/kernels.h"
#include "exec/failpoints.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

FastPathDecision DecideFastPath(const Graph& graph, const Pattern& pattern,
                                const CensusOptions& options) {
  FastPathDecision decision;
  if (!options.subpattern.empty()) {
    decision.reject_reason = "COUNTSP subpattern census";
    return decision;
  }
  if (options.use_gql_matcher) {
    // --matcher gql exists to observe the GQL cost end-to-end; honoring it
    // means actually running that matcher.
    decision.reject_reason = "explicit GQL matcher";
    return decision;
  }
  decision.shape = AnalyzeShape(pattern);
  if (!decision.shape.eligible()) {
    decision.reject_reason = decision.shape.reject_reason;
    return decision;
  }
  if (graph.directed()) {
    decision.reject_reason = "directed graph";
    return decision;
  }
  // The closed-form kernels assume simple adjacency; Finalize records
  // whether AddEdge ever repeated a pair.
  if (graph.has_parallel_edges()) {
    decision.reject_reason = "graph has parallel edges";
    return decision;
  }
  decision.routed = true;
  return decision;
}

CensusResult RunFastPath(const CensusContext& ctx, const PatternShape& shape) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;
  const fastpath::CountLevel level = fastpath::LevelForShape(shape);

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  Timer timer;
  struct Scratch {
    std::optional<fastpath::EgoKernel> kernel;
    CensusStats stats;
    ScratchCharge charge;  // high-water footprint of the reused buffers
  };
  // Counts and completion are recorded only when the focal node finishes
  // cleanly, so a budget stop mid-node leaves it kPending and its count
  // untouched (same contract as the node-driven engines).
  auto process = [&](NodeId n, Scratch& s) {
    s.kernel->Build(n, k);
    EGO_HIST_RECORD("census/neighborhood_size", s.kernel->NumLocalNodes());
    s.stats.nodes_expanded += s.kernel->NumLocalNodes();
    s.stats.peak_neighborhood = std::max<std::uint64_t>(
        s.stats.peak_neighborhood, s.kernel->NumLocalNodes());
    if (!s.charge.Update(gov, s.kernel->ScratchBytes())) return;
    const fastpath::MotifCounts counts = s.kernel->Count(level);
    result.counts[n] = fastpath::ShapeCount(counts, shape);
    result.focal_state[n] = FocalState::kComplete;
  };
  // One checkpoint per focal node; a stop leaves the remaining nodes
  // kPending without touching them.
  auto run_range = [&](std::size_t begin, std::size_t end, Scratch& s) {
    for (std::size_t i = begin; i < end; ++i) {
      EGO_FAILPOINT("census/focal");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      process(ctx.focal[i], s);
    }
  };
  EGO_SPAN("census/count");
  if (ctx.pool == nullptr) {
    Scratch scratch;
    scratch.kernel.emplace(graph);
    run_range(0, ctx.focal.size(), scratch);
    result.stats.Merge(scratch.stats);
  } else {
    std::vector<Scratch> scratch(ctx.pool->NumWorkers());
    for (auto& s : scratch) s.kernel.emplace(graph);
    ctx.pool->ParallelFor(
        0, ctx.focal.size(), /*grain=*/4, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          run_range(begin, end, scratch[worker]);
        });
    for (const auto& s : scratch) result.stats.Merge(s.stats);
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  FinishExecStatus(ctx, "FASTPATH", &result);
  return result;
}

}  // namespace egocensus::internal
