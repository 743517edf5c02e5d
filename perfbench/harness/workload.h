#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

// The benchmark's inputs, all derived from the workload seed: the query
// classes, the request sequences of both workloads and the write stream of
// the traced runs. The graphs are fixed (their generator seeds are
// constants), so the seed varies the traffic against a graph, not the
// graph; README.md says why.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using egocensus::Graph;
using egocensus::NodeId;

/// Graph shape of a workload: preferential attachment, uniform labels.
struct GraphSpec {
  std::uint32_t nodes = 0;
  std::uint32_t edges_per_node = 0;
  std::uint32_t labels = 4;
  std::uint64_t generator_seed = 0;
};

/// Resident graph of daemon-read.
GraphSpec DaemonGraphSpec();
/// Graph file of cli-batch.
GraphSpec CliGraphSpec();

Graph MakeGraph(const GraphSpec& spec);

/// One query class: its name (the metric and span prefix) and its census
/// query. `focal` is the WHERE clause that picks the focal nodes; the
/// reference census runs the same query without it.
struct QueryClass {
  std::string name;
  std::string pattern;       // PATTERN block
  std::string pattern_name;  // name used in COUNTP
  std::uint32_t k = 1;       // SUBGRAPH radius
  std::string focal;         // WHERE clause text, "" = all nodes
  // Requests per kReadBlock-request block of each workload's sequence.
  std::uint32_t daemon_share = 0;
  std::uint32_t cli_share = 0;

  /// The query text sent to the program.
  std::string Text() const;
  /// Same census over every node: the reference query.
  std::string AllNodesText() const;
};

// ---- the measured requests ----------------------------------------------

/// The classes both workloads send: tri1, clq4k2, label1, ltri1 (daemon-read
/// 45/40/5/10 %, cli-batch 30/45/15/10 %).
const std::vector<QueryClass>& ReadClasses();

/// Requests per block; every block holds exactly each class's share.
inline constexpr std::size_t kReadBlock = 20;

/// The entry point a sequence is built for: it picks the class shares.
enum class Entry { kDaemon, kCli };

struct ReadRequest {
  std::size_t cls = 0;          // index into ReadClasses()
  // The RND() sample: the QUERY `seed` header, the CLI's --seed.
  std::uint64_t rnd_seed = 0;
};

/// `blocks` blocks of kReadBlock requests, each block a seeded shuffle of
/// the class shares of `entry`, each request with its own seeded RND() seed.
std::vector<ReadRequest> BuildReadSequence(std::uint64_t seed,
                                           std::size_t blocks, Entry entry);

/// Whole-graph censuses of the paper's Fig. 4 measured in-process by the
/// traced runs (routing and the counting pool): tri2, ltri2, wedge1.
const std::vector<QueryClass>& WholeGraphClasses();

// ---- write path (traced runs) --------------------------------------------

using Edge = std::pair<NodeId, NodeId>;

struct Write {
  bool insert = true;       // ae lines, else re lines
  std::vector<Edge> edges;  // 1 edge, or kBatchEdges edges
  bool RestoresBase() const { return !insert; }
  bool single() const { return edges.size() == 1; }
};

inline constexpr std::size_t kBatchEdges = 1000;
/// Writes per cycle: (kWriteCycle - 2) / 2 single-edge insert/delete pairs,
/// then one batch insert and its matching batch delete.
inline constexpr std::size_t kWriteCycle = 12;

/// `count` writes of edges absent from `base`; after every delete the
/// graph is back to `base`.
std::vector<Write> BuildWriteStream(const Graph& base, std::uint64_t seed,
                                    std::size_t count);

/// The update-stream text (dynamic/update_stream.h format) of a write.
std::string UpdateText(const Write& write);

/// FNV-1a over a count vector (test and log fingerprint of a reference).
std::uint64_t HashCounts(const std::vector<std::uint64_t>& counts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
