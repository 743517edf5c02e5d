#include "harness/workload.h"

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kTriangle = "PATTERN t {?A-?B; ?B-?C; ?C-?A;}";
constexpr const char* kLabelledTriangle =
    "PATTERN lt {?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1]; [?B.LABEL=2];}";

/// Independent streams per input, so changing one generator never shifts
/// another's draws.
egocensus::Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  return egocensus::Rng(seed * 0x9e3779b97f4a7c15ULL + stream);
}

}  // namespace

GraphSpec DaemonGraphSpec() { return {12000, 7, 4, 20120401}; }
GraphSpec CliGraphSpec() { return {10000, 5, 4, 20120402}; }

Graph MakeGraph(const GraphSpec& spec) {
  egocensus::GeneratorOptions options;
  options.num_nodes = spec.nodes;
  options.edges_per_node = spec.edges_per_node;
  options.num_labels = spec.labels;
  options.seed = spec.generator_seed;
  return egocensus::GeneratePreferentialAttachment(options);
}

std::string QueryClass::Text() const {
  std::string text = AllNodesText();
  if (!focal.empty()) text += " WHERE " + focal;
  return text;
}

std::string QueryClass::AllNodesText() const {
  return pattern + " SELECT ID, COUNTP(" + pattern_name + ", SUBGRAPH(ID, " +
         std::to_string(k) + ")) FROM nodes";
}

const std::vector<QueryClass>& ReadClasses() {
  static const std::vector<QueryClass> kClasses = {
      {"tri1", kTriangle, "t", 1, "RND() < 0.01", 9, 6},
      {"clq4k2",
       "PATTERN q {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;}", "q", 2,
       "RND() < 0.006", 8, 9},
      {"label1", "PATTERN l {?A; [?A.LABEL=1];}", "l", 1, "RND() < 0.004", 1,
       3},
      {"ltri1", kLabelledTriangle, "lt", 1, "RND() < 0.01", 2, 2},
  };
  return kClasses;
}

std::vector<ReadRequest> BuildReadSequence(std::uint64_t seed,
                                           std::size_t blocks, Entry entry) {
  const bool cli = entry == Entry::kCli;
  egocensus::Rng rng = StreamRng(seed, cli ? 4 : 1);
  std::vector<std::size_t> block;
  for (std::size_t c = 0; c < ReadClasses().size(); ++c) {
    const QueryClass& cls = ReadClasses()[c];
    block.insert(block.end(), cli ? cls.cli_share : cls.daemon_share, c);
  }
  std::vector<ReadRequest> sequence;
  sequence.reserve(blocks * block.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    rng.Shuffle(&block);
    for (std::size_t cls : block) {
      // RND() seeds stay below 2^53 so they survive any text round trip.
      sequence.push_back({cls, rng.Next() >> 11});
    }
  }
  return sequence;
}

std::vector<Write> BuildWriteStream(const Graph& base, std::uint64_t seed,
                                    std::size_t count) {
  egocensus::Rng rng = StreamRng(seed, 3);
  const std::uint32_t n = base.NumNodes();
  auto absent_edges = [&](std::size_t want) {
    std::set<Edge> picked;
    std::vector<Edge> edges;
    while (edges.size() < want) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v || base.HasEdge(u, v)) continue;
      Edge e = std::minmax(u, v);
      if (picked.insert(e).second) edges.push_back(e);
    }
    return edges;
  };
  std::vector<Write> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    std::size_t position = stream.size() % kWriteCycle;
    std::vector<Edge> edges =
        absent_edges(position + 2 < kWriteCycle ? 1 : kBatchEdges);
    stream.push_back({true, edges});
    stream.push_back({false, std::move(edges)});
  }
  stream.resize(count);
  return stream;
}

std::string UpdateText(const Write& write) {
  std::string text;
  const char* op = write.insert ? "ae " : "re ";
  for (const Edge& e : write.edges) {
    text += op + std::to_string(e.first) + " " + std::to_string(e.second) +
            "\n";
  }
  return text;
}

const std::vector<QueryClass>& WholeGraphClasses() {
  static const std::vector<QueryClass> kClasses = {
      {"tri2", kTriangle, "t", 2, "", 0, 0},
      {"ltri2", kLabelledTriangle, "lt", 2, "", 0, 0},
      {"wedge1", "PATTERN w {?A-?B; ?B-?C;}", "w", 1, "", 0, 0},
  };
  return kClasses;
}

std::uint64_t HashCounts(const std::vector<std::uint64_t>& counts) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t c : counts) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (c >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
