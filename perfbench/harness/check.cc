#include "harness/check.h"

#include <charconv>
#include <sstream>

namespace perfbench {
namespace {

bool ParseUint(std::string_view text, std::uint64_t* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool RowsMatch(const CountRows& rows, const Counts& reference) {
  for (std::size_t i = 0; i < rows.ids.size(); ++i) {
    NodeId id = rows.ids[i];
    if (id >= reference.size() || rows.counts[i] != reference[id]) {
      return false;
    }
  }
  return true;
}

}  // namespace

egocensus::Result<Counts> ReferenceCounts(
    const Graph& graph, const egocensus::GraphIndexes* indexes,
    const QueryClass& cls, std::uint32_t threads) {
  egocensus::QueryEngine engine(graph, indexes);
  egocensus::QueryEngine::Options options;
  options.auto_algorithm = false;
  options.census.algorithm = egocensus::CensusAlgorithm::kNdPvot;
  options.census.fast_path = egocensus::FastPathMode::kOff;
  options.census.num_threads = threads;
  auto table = engine.Execute(cls.AllNodesText(), options);
  if (!table.ok()) return table.status();
  if (!engine.last_exec_status().ok()) return engine.last_exec_status();
  std::ostringstream csv;
  table->WriteCsv(csv);
  CountRows rows;
  if (!ParseCountCsv(csv.str(), &rows) || rows.ids.size() != graph.NumNodes()) {
    return egocensus::Status::Internal("reference for " + cls.name +
                                       " is not one row per node");
  }
  Counts counts(graph.NumNodes(), 0);
  for (std::size_t i = 0; i < rows.ids.size(); ++i) {
    counts[rows.ids[i]] = rows.counts[i];
  }
  return counts;
}

egocensus::Result<std::vector<NodeId>> FocalSample(const Graph& graph,
                                                   const QueryClass& cls,
                                                   std::uint64_t rnd_seed) {
  egocensus::QueryEngine engine(graph);
  egocensus::QueryEngine::Options options;
  options.rnd_seed = rnd_seed;
  auto table = engine.Execute("SELECT ID FROM nodes WHERE " + cls.focal,
                              options);
  if (!table.ok()) return table.status();
  std::vector<NodeId> focal;
  focal.reserve(table->NumRows());
  for (std::size_t r = 0; r < table->NumRows(); ++r) {
    std::uint64_t id = 0;
    if (!ParseUint(egocensus::AttributeValueToString(table->At(r, 0)), &id)) {
      return egocensus::Status::Internal("focal sample row is not an id");
    }
    focal.push_back(static_cast<NodeId>(id));
  }
  return focal;
}

bool ParseCountCsv(std::string_view csv, CountRows* rows) {
  rows->ids.clear();
  rows->counts.clear();
  std::size_t line_end = csv.find('\n');
  if (line_end == std::string_view::npos) return false;  // no header
  std::size_t pos = line_end + 1;
  while (pos < csv.size()) {
    line_end = csv.find('\n', pos);
    if (line_end == std::string_view::npos) line_end = csv.size();
    std::string_view line = csv.substr(pos, line_end - pos);
    pos = line_end + 1;
    std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    std::uint64_t id = 0, count = 0;
    if (!ParseUint(line.substr(0, comma), &id) ||
        !ParseUint(line.substr(comma + 1), &count)) {
      return false;
    }
    rows->ids.push_back(static_cast<NodeId>(id));
    rows->counts.push_back(count);
  }
  return true;
}

bool AnswerMatches(std::string_view csv, const std::vector<NodeId>& focal,
                   const Counts& reference) {
  CountRows rows;
  return ParseCountCsv(csv, &rows) && rows.ids == focal &&
         RowsMatch(rows, reference);
}

}  // namespace perfbench
