#include "harness/layers.h"

#include <deque>
#include <map>
#include <mutex>

#include "dynamic/dynamic_graph.h"
#include "exec/governor.h"
#include "graph/io.h"
#include "lang/analyzer.h"
#include "lang/query_parser.h"
#include "harness/stats.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace perfbench {

using egocensus::obs::ScopedSpan;

SpanTable::SpanTable() {
  for (const egocensus::obs::SpanRecord& span :
       egocensus::obs::Tracer::Global().Snapshot()) {
    if (span.name == nullptr) continue;
    durations_us_[span.name].push_back(static_cast<double>(span.dur_us));
  }
}

std::optional<double> SpanTable::MeanUs(const std::string& name) const {
  auto it = durations_us_.find(name);
  if (it == durations_us_.end() || it->second.empty()) return std::nullopt;
  double sum = 0;
  for (double d : it->second) sum += d;
  return sum / static_cast<double>(it->second.size());
}

std::optional<double> SpanTable::MeanMs(const std::string& name) const {
  std::optional<double> us = MeanUs(name);
  if (!us.has_value()) return std::nullopt;
  return *us / 1e3;
}

std::size_t SpanTable::Count(const std::string& name) const {
  auto it = durations_us_.find(name);
  return it == durations_us_.end() ? 0 : it->second.size();
}

std::vector<double> SpanTable::Us(const std::string& name) const {
  auto it = durations_us_.find(name);
  return it == durations_us_.end() ? std::vector<double>{} : it->second;
}

const char* SpanName(const std::string& name) {
  static std::mutex mu;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& known : names) {
    if (known == name) return known.c_str();
  }
  names.push_back(name);
  return names.back().c_str();
}

EngineStats MeasureEngine(const Graph& graph,
                          const egocensus::GraphIndexes& indexes,
                          const std::vector<EngineRequest>& requests,
                          std::uint32_t threads, const std::string& span,
                          Report* report) {
  EngineStats out;
  const char* name = SpanName("pb/" + span);
  for (const EngineRequest& request : requests) {
    egocensus::QueryEngine engine(graph, &indexes);
    egocensus::QueryEngine::Options options;
    options.rnd_seed = request.rnd_seed;
    options.census.num_threads = threads;
    egocensus::Status status = [&] {
      ScopedSpan scoped(name);
      auto table = engine.Execute(request.text, options);
      return table.ok() ? engine.last_exec_status() : table.status();
    }();
    if (!status.ok()) {
      report->Error(span + ": " + status.ToString());
      return out;
    }
    ++out.runs;
    for (const egocensus::CensusStats& s : engine.last_stats()) {
      out.match_ms += s.match_seconds * 1e3;
      out.index_ms += s.index_seconds * 1e3;
      out.count_ms += s.census_seconds * 1e3;
      out.matches += static_cast<double>(s.num_matches);
      out.nodes_expanded += static_cast<double>(s.nodes_expanded);
      out.reinsertions += static_cast<double>(s.reinsertions);
      out.fastpath_routed += static_cast<double>(s.fastpath_routed);
    }
  }
  if (out.runs > 0) {
    double n = static_cast<double>(out.runs);
    for (double* v : {&out.match_ms, &out.index_ms, &out.count_ms,
                      &out.matches, &out.nodes_expanded, &out.reinsertions,
                      &out.fastpath_routed}) {
      *v /= n;
    }
  }
  return out;
}

void ReportEngine(Report* report, const SpanTable& spans,
                  const std::string& cls, const EngineStats& stats,
                  const std::string& feeds) {
  const std::string p = "census." + cls + ".";
  report->Layer(p + "exec_ms", spans.MeanMs("pb/" + p + "exec"), "ms",
                spans.Count("pb/" + p + "exec"), feeds);
  // A class with no successful execution has no means: Report refuses it.
  auto mean = [&](double value) {
    return stats.runs > 0 ? std::optional<double>(value) : std::nullopt;
  };
  report->Layer(p + "match_ms", mean(stats.match_ms), "ms", stats.runs, feeds);
  report->Layer(p + "index_ms", mean(stats.index_ms), "ms", stats.runs, feeds);
  report->Layer(p + "count_ms", mean(stats.count_ms), "ms", stats.runs, feeds);
  report->Layer(p + "matches", mean(stats.matches), "count", stats.runs);
  report->Layer(p + "nodes_expanded", mean(stats.nodes_expanded), "count",
                stats.runs);
  report->Layer(p + "reinsertions", mean(stats.reinsertions), "count",
                stats.runs);
  report->Layer(p + "fastpath_routed", mean(stats.fastpath_routed), "count",
                stats.runs);
}

void MeasureLang(const std::string& cls, const std::string& text, int reps,
                 Report* report) {
  const char* parse = SpanName("pb/lang." + cls + ".parse");
  const char* analyze = SpanName("pb/lang." + cls + ".analyze");
  for (int i = 0; i < reps; ++i) {
    egocensus::Result<egocensus::Query> query = [&] {
      ScopedSpan span(parse);
      return egocensus::ParseQuery(text);
    }();
    if (!query.ok()) {
      report->Error("lang." + cls + " parse: " + query.status().ToString());
      return;
    }
    ScopedSpan span(analyze);
    auto analyzed = egocensus::AnalyzeQuery(*query, {});
    if (!analyzed.ok()) {
      report->Error("lang." + cls + " analyze: " +
                    analyzed.status().ToString());
      return;
    }
  }
}

std::size_t MeasureFrame(const std::string& cls,
                         const egocensus::net::Message& response, int reps,
                         Report* report) {
  const char* encode = SpanName("pb/net." + cls + ".encode");
  const char* decode = SpanName("pb/net." + cls + ".decode");
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < reps; ++i) {
    {
      ScopedSpan span(encode);
      frame = egocensus::net::EncodeFrame(response);
    }
    egocensus::net::Message decoded;
    std::size_t consumed = 0;
    std::string error;
    ScopedSpan span(decode);
    if (egocensus::net::TryDecodeFrame(frame.data(), frame.size(), &decoded,
                                       &consumed, &error) !=
        egocensus::net::DecodeResult::kFrame) {
      report->Error("net." + cls + " decode: " + error);
      return 0;
    }
  }
  return frame.size();
}

void MeasureGovernor(const Graph& graph,
                     const egocensus::GraphIndexes& indexes,
                     const std::vector<EngineRequest>& requests,
                     Report* report) {
  const char* governed = SpanName("pb/exec.governed");
  const char* ungoverned = SpanName("pb/exec.ungoverned");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Alternate which side runs first so drift cancels.
    for (int side = 0; side < 2; ++side) {
      bool with_governor = (side == 0) == (i % 2 == 0);
      egocensus::QueryEngine engine(graph, &indexes);
      egocensus::QueryEngine::Options options;
      options.rnd_seed = requests[i].rnd_seed;
      egocensus::Governor governor;
      if (with_governor) options.census.governor = &governor;
      egocensus::Status status = [&] {
        ScopedSpan span(with_governor ? governed : ungoverned);
        auto table = engine.Execute(requests[i].text, options);
        return table.ok() ? engine.last_exec_status() : table.status();
      }();
      if (!status.ok()) {
        report->Error("exec governor probe: " + status.ToString());
        return;
      }
    }
  }
}

void MeasureLoad(const std::string& path, int reps, Report* report) {
  const char* load = SpanName("pb/graph.load");
  const char* build = SpanName("pb/graph.index_build");
  for (int i = 0; i < reps; ++i) {
    egocensus::Result<Graph> graph = [&] {
      ScopedSpan span(load);
      return egocensus::LoadGraph(path);
    }();
    if (!graph.ok()) {
      report->Error("graph.load: " + graph.status().ToString());
      return;
    }
    ScopedSpan span(build);
    egocensus::GraphIndexes indexes = egocensus::GraphIndexes::Build(*graph);
    (void)indexes;
  }
}

std::size_t ReplayWrites(const Graph& base, const std::vector<Write>& writes,
                         Report* report) {
  const char* apply = SpanName("pb/dynamic.apply");
  const char* apply_batch = SpanName("pb/dynamic.apply_batch");
  const char* compact = SpanName("pb/dynamic.compact");
  const char* materialize = SpanName("pb/dynamic.materialize");
  const char* build = SpanName("pb/graph.index_build");
  egocensus::DynamicGraph dynamic{Graph(base)};
  std::size_t compactions = 0;
  for (const Write& write : writes) {
    {
      ScopedSpan span(write.single() ? apply : apply_batch);
      for (const Edge& e : write.edges) {
        auto applied =
            write.insert
                ? dynamic.Apply(egocensus::GraphUpdate::AddEdge(e.first,
                                                                e.second))
                : dynamic.Apply(egocensus::GraphUpdate::RemoveEdge(e.first,
                                                                   e.second));
        // Every write of the stream changes the graph: no error, no no-op.
        if (!applied.ok() || !*applied) {
          report->Error("dynamic.apply: write not applied");
          return compactions;
        }
      }
    }
    if (dynamic.DeltaFraction() > 0.25) {
      ScopedSpan span(compact);
      dynamic.Compact();
      ++compactions;
    }
    Graph snapshot = [&] {
      ScopedSpan span(materialize);
      return dynamic.Materialize();
    }();
    ScopedSpan span(build);
    egocensus::GraphIndexes indexes = egocensus::GraphIndexes::Build(snapshot);
    (void)indexes;
  }
  return compactions;
}

namespace {

/// In-process replays of one read class: its first `reps` requests.
std::vector<EngineRequest> FirstRequests(
    const std::vector<ReadRequest>& sequence, std::size_t cls,
    std::size_t reps) {
  std::vector<EngineRequest> out;
  for (const ReadRequest& request : sequence) {
    if (out.size() == reps) break;
    if (request.cls == cls) {
      out.push_back({ReadClasses()[cls].Text(), request.rnd_seed});
    }
  }
  return out;
}

}  // namespace

void MeasureSharedLayers(const Workload& workload,
                         const std::string& write_feeds, Report* report) {
  egocensus::obs::SetEnabled(true);
  const Graph& graph = workload.graph;
  const egocensus::GraphIndexes& indexes = workload.indexes;
  const std::vector<QueryClass>& read = ReadClasses();
  const std::vector<QueryClass>& whole = WholeGraphClasses();
  // 21 executions per read class: enough for the median the daemon's
  // net.<class>.overhead_ms subtracts.
  constexpr std::size_t kEngineReps = 2 * kMinBeyond + 1;
  std::vector<EngineStats> read_stats(read.size());
  for (std::size_t c = 0; c < read.size(); ++c) {
    MeasureLang(read[c].name, read[c].Text(), 200, report);
    read_stats[c] = MeasureEngine(
        graph, indexes, FirstRequests(workload.sequence, c, kEngineReps),
        workload.threads, "census." + read[c].name + ".exec", report);
  }
  // Whole-graph censuses take seconds: 2 executions per thread count.
  std::vector<EngineStats> two(whole.size()), one(whole.size());
  for (std::size_t c = 0; c < whole.size(); ++c) {
    std::vector<EngineRequest> requests(2, {whole[c].Text(), 99});
    two[c] = MeasureEngine(graph, indexes, requests, 2,
                           "census." + whole[c].name + ".exec", report);
    one[c] = MeasureEngine(graph, indexes, requests, 1,
                           "census." + whole[c].name + ".exec_1t", report);
  }
  std::vector<EngineRequest> governed = FirstRequests(workload.sequence, 0, 10);
  for (const EngineRequest& r : FirstRequests(workload.sequence, 1, 5)) {
    governed.push_back(r);
  }
  MeasureGovernor(graph, indexes, governed, report);
  MeasureLoad(workload.path, 5, report);
  const std::size_t replayed = kReplayedCycles * kWriteCycle;
  std::size_t compactions = ReplayWrites(
      graph, BuildWriteStream(graph, workload.seed, replayed), report);

  SpanTable spans;
  // The mean of span "pb/<span>" in `unit` (us or ms).
  auto span_layer = [&](const std::string& name, const std::string& span,
                        const std::string& unit, const std::string& feeds) {
    const std::string key = "pb/" + span;
    report->Layer(name, unit == "ms" ? spans.MeanMs(key) : spans.MeanUs(key),
                  unit, spans.Count(key), feeds);
  };
  for (std::size_t c = 0; c < read.size(); ++c) {
    const std::string& name = read[c].name;
    const std::string feeds = name + "_ms";
    span_layer("lang." + name + ".parse_us", "lang." + name + ".parse", "us",
               feeds);
    span_layer("lang." + name + ".analyze_us", "lang." + name + ".analyze",
               "us", feeds);
    ReportEngine(report, spans, name, read_stats[c], feeds);
  }
  double count_1t = 0, count_2t = 0;
  for (std::size_t c = 0; c < whole.size(); ++c) {
    ReportEngine(report, spans, whole[c].name, two[c], "");
    report->Layer("census." + whole[c].name + ".count_ms_1t",
                  one[c].runs > 0 ? std::optional<double>(one[c].count_ms)
                                  : std::nullopt,
                  "ms", one[c].runs);
    count_1t += one[c].count_ms;
    count_2t += two[c].count_ms;
  }
  report->Layer("util.pool_speedup",
                count_2t > 0 ? std::optional<double>(count_1t / count_2t)
                             : std::nullopt,
                "x", 2 * whole.size());
  std::optional<double> gov_us = spans.MeanUs("pb/exec.governed");
  std::optional<double> free_us = spans.MeanUs("pb/exec.ungoverned");
  report->Layer("exec.governor_overhead_pct",
                gov_us.has_value() && free_us.has_value()
                    ? std::optional<double>(100.0 * (*gov_us / *free_us - 1.0))
                    : std::nullopt,
                "%",
                spans.Count("pb/exec.governed") +
                    spans.Count("pb/exec.ungoverned"),
                "query_p50_ms");
  span_layer("graph.load_ms", "graph.load", "ms", "setup_s");
  span_layer("graph.index_build_ms", "graph.index_build", "ms", "setup_s");
  span_layer("dynamic.apply_us", "dynamic.apply", "us", write_feeds);
  span_layer("dynamic.materialize_ms", "dynamic.materialize", "ms",
             write_feeds);
  span_layer("dynamic.compact_ms", "dynamic.compact", "ms", "");
  report->Layer("dynamic.compactions", static_cast<double>(compactions),
                "count", replayed);
}

std::optional<double> TraceOverheadPct(const std::vector<Timed>& untraced,
                                       const std::vector<Timed>& traced) {
  std::map<std::size_t, double> base;
  for (const Timed& t : untraced) base[t.index] = t.ms;
  double sum_base = 0, sum_traced = 0;
  for (const Timed& t : traced) {
    auto it = base.find(t.index);
    if (it == base.end()) continue;
    sum_base += it->second;
    sum_traced += t.ms;
  }
  if (sum_base <= 0) return std::nullopt;
  return 100.0 * (sum_traced / sum_base - 1.0);
}

}  // namespace perfbench
