#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

// In-process per-layer measurements for the traced run. Each function calls
// one layer's public entry points inside obs::ScopedSpan spans named
// "pb/<metric>" (observability must be enabled); SpanTable then reads the
// recorded durations back out of the global obs::Tracer. Counts come from
// the program's own CensusStats.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/workload.h"
#include "lang/engine.h"
#include "net/frame.h"

namespace perfbench {

/// Durations of the spans recorded so far, by name (snapshot of the tracer;
/// call only while no thread is recording).
class SpanTable {
 public:
  SpanTable();
  /// Mean duration in microseconds; nullopt when no span was recorded, so
  /// that Report refuses the metric instead of printing 0.
  std::optional<double> MeanUs(const std::string& name) const;
  /// The same in milliseconds.
  std::optional<double> MeanMs(const std::string& name) const;
  /// Number of spans recorded under `name`.
  std::size_t Count(const std::string& name) const;
  /// Every duration in microseconds.
  std::vector<double> Us(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> durations_us_;
};

/// Interned span name: obs::SpanRecord keeps the pointer, so the string
/// must outlive the tracer.
const char* SpanName(const std::string& name);

/// One census execution to replay in-process.
struct EngineRequest {
  std::string text;
  std::uint64_t rnd_seed = 99;
};

/// Per-execution means of one class's CensusStats.
struct EngineStats {
  std::size_t runs = 0;
  double match_ms = 0, index_ms = 0, count_ms = 0;
  double matches = 0, nodes_expanded = 0, reinsertions = 0;
  double fastpath_routed = 0;
};

// Every Measure* function and ReplayWrites calls report->Error (the run
// then prints no result) when a call into the layer fails.

/// Runs `requests` through QueryEngine::Execute over `indexes` with the
/// default (auto) routing, as the daemon and the CLI do, on `threads`
/// counting workers; span "pb/<span>".
EngineStats MeasureEngine(const Graph& graph,
                          const egocensus::GraphIndexes& indexes,
                          const std::vector<EngineRequest>& requests,
                          std::uint32_t threads, const std::string& span,
                          Report* report);

/// Reports census.<cls>.{exec,match,index,count}_ms and the counts.
void ReportEngine(Report* report, const SpanTable& spans,
                  const std::string& cls, const EngineStats& stats,
                  const std::string& feeds);

/// ParseQuery / AnalyzeQuery of `text`, `reps` times each; spans
/// "pb/lang.<cls>.parse" and "pb/lang.<cls>.analyze".
void MeasureLang(const std::string& cls, const std::string& text, int reps,
                 Report* report);

/// EncodeFrame / TryDecodeFrame of `response`, `reps` times each; spans
/// "pb/net.<cls>.encode" and "pb/net.<cls>.decode". Returns the frame size.
std::size_t MeasureFrame(const std::string& cls,
                         const egocensus::net::Message& response, int reps,
                         Report* report);

/// Execute with an unlimited Governor against Execute with none,
/// alternating; spans "pb/exec.governed" and "pb/exec.ungoverned".
void MeasureGovernor(const Graph& graph,
                     const egocensus::GraphIndexes& indexes,
                     const std::vector<EngineRequest>& requests,
                     Report* report);

/// LoadGraph and GraphIndexes::Build of `path`, `reps` times; spans
/// "pb/graph.load" and "pb/graph.index_build".
void MeasureLoad(const std::string& path, int reps, Report* report);

/// Replays `writes` on a DynamicGraph over `base` as the daemon's UPDATE
/// does (apply, compact past a 25% delta, materialize, rebuild indexes);
/// spans "pb/dynamic.apply" (single-edge writes), "pb/dynamic.apply_batch",
/// "pb/dynamic.compact", "pb/dynamic.materialize", "pb/graph.index_build".
/// Returns the number of compactions.
std::size_t ReplayWrites(const Graph& base, const std::vector<Write>& writes,
                         Report* report);

/// Write cycles ReplayWrites replays: past the 25% delta that compacts.
inline constexpr std::size_t kReplayedCycles = 14;

/// The graph one workload runs on, resident in this process.
struct Workload {
  const Graph& graph;
  const egocensus::GraphIndexes& indexes;
  const std::string& path;                   // its graph file
  const std::vector<ReadRequest>& sequence;  // its measured requests
  std::uint64_t seed;                        // the run's --seed
  std::uint32_t threads;                     // counting threads per census
};

/// The per-layer split both workloads report, measured in-process on the
/// workload's graph (enables observability): lang and census for every read
/// class (its first requests of the sequence), census at 2 and at 1
/// counting threads for the whole-graph classes and util.pool_speedup from
/// them, exec.governor_overhead_pct, graph.load_ms, graph.index_build_ms,
/// and the dynamic.* replay of the run's write stream. `write_feeds` names
/// the metric the dynamic.* times feed ("" for none).
void MeasureSharedLayers(const Workload& workload,
                         const std::string& write_feeds, Report* report);

/// A completed request: its position in the sequence and its latency.
struct Timed {
  std::size_t index = 0;
  double ms = 0;
};

/// obs.trace_overhead_pct: the mean latency of the traced phase against
/// the untraced one, over the sequence positions both completed.
std::optional<double> TraceOverheadPct(const std::vector<Timed>& untraced,
                                       const std::vector<Timed>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
