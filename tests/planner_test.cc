// Cost-based planner (census/planner.h): CensusAlgorithm::kAuto must pick
// the engine the calibration cases measured fastest, and whatever it picks
// must count exactly what ND-BAS counts — for every fast-path skeleton plus
// a labelled triangle and a labelled node, over single-node, 1% RND() and
// whole-graph focal sets, at k = 1 and 2, serial and with four workers.

#include "census/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "census/census.h"
#include "graph/generators.h"
#include "lang/engine.h"
#include "pattern/pattern_parser.h"

namespace egocensus {
namespace {

constexpr const char* kTriangle = "PATTERN t {?A-?B; ?B-?C; ?C-?A;}";
constexpr const char* kLabelledTriangle =
    "PATTERN lt {?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1]; [?B.LABEL=2];}";
constexpr const char* kLabelledNode = "PATTERN l {?A; [?A.LABEL=1];}";
constexpr const char* kWedge = "PATTERN w {?A-?B; ?B-?C;}";
constexpr const char* kClique4 =
    "PATTERN q {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;}";

/// The ten connected skeletons the fast path counts, by shape name.
const std::vector<std::pair<std::string, std::string>>& Skeletons() {
  static const std::vector<std::pair<std::string, std::string>> kShapes = {
      {"singleton", "PATTERN p {?A;}"},
      {"edge", "PATTERN p {?A-?B;}"},
      {"wedge", kWedge},
      {"triangle", kTriangle},
      {"path4", "PATTERN p {?A-?B; ?B-?C; ?C-?D;}"},
      {"claw", "PATTERN p {?A-?B; ?A-?C; ?A-?D;}"},
      {"paw", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?A-?D;}"},
      {"cycle4", "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?A;}"},
      {"diamond", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D;}"},
      {"clique4", kClique4},
  };
  return kShapes;
}

Pattern Parse(const std::string& text) {
  auto pattern = ParsePattern(text);
  CheckOk(pattern.status(), "planner test pattern");
  return std::move(pattern).value();
}

Graph Pa(std::uint32_t nodes, std::uint32_t edges_per_node,
         std::uint32_t labels, std::uint64_t seed) {
  GeneratorOptions options;
  options.num_nodes = nodes;
  options.edges_per_node = edges_per_node;
  options.num_labels = labels;
  options.seed = seed;
  return GeneratePreferentialAttachment(options);
}

/// The focal nodes `WHERE RND() < rate` selects under `rnd_seed`, exactly
/// as a query would.
std::vector<NodeId> RndFocal(const Graph& graph, double rate,
                             std::uint64_t rnd_seed) {
  QueryEngine engine(graph);
  QueryEngine::Options options;
  options.rnd_seed = rnd_seed;
  auto table = engine.Execute(
      "SELECT ID FROM nodes WHERE RND() < " + std::to_string(rate), options);
  CheckOk(table.status(), "focal sample");
  std::vector<NodeId> focal;
  for (std::size_t r = 0; r < table->NumRows(); ++r) {
    focal.push_back(
        static_cast<NodeId>(std::get<std::int64_t>(table->At(r, 0))));
  }
  return focal;
}

std::string Choose(const Graph& graph, const std::string& pattern,
                   std::span<const NodeId> focal, std::uint32_t k) {
  CensusOptions options;
  options.k = k;
  return PlanEngineName(ChoosePlan(graph, Parse(pattern), focal, options).engine);
}

// The four request classes of the daemon workload: a 12K-node, 7-edge PA
// graph with 4 labels and small RND() focal samples. Per-focal engines
// answer these in well under a millisecond; the whole-graph match they
// used to pay took 75-200 ms.
TEST(PlannerTest, SmallFocalSamplesStayPerFocal) {
  const Graph graph = Pa(12000, 7, 4, 20120401);
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("rnd seed " + std::to_string(seed));
    EXPECT_EQ(Choose(graph, kTriangle, RndFocal(graph, 0.01, seed), 1),
              "fastpath");
    EXPECT_EQ(Choose(graph, kClique4, RndFocal(graph, 0.006, seed), 2),
              "fastpath");
    EXPECT_EQ(Choose(graph, kLabelledNode, RndFocal(graph, 0.004, seed), 1),
              "nd-bas");
    EXPECT_EQ(Choose(graph, kLabelledTriangle, RndFocal(graph, 0.01, seed), 1),
              "nd-bas");
  }
}

// Whole-graph censuses on the CLI workload's 10K-node, 5-edge graph: the
// pattern-driven side of the Section IV trade-off.
TEST(PlannerTest, WholeGraphCalibrationCases) {
  const Graph graph = Pa(10000, 5, 4, 20120402);
  const std::vector<NodeId> all = AllNodes(graph);
  EXPECT_EQ(Choose(graph, kTriangle, all, 2), "nd-pvot");
  EXPECT_EQ(Choose(graph, kLabelledTriangle, all, 2), "pt-bas");
  EXPECT_EQ(Choose(graph, kWedge, all, 1), "fastpath");
  EXPECT_EQ(Choose(graph, kClique4, all, 2), "pt-bas");
}

// The fast-path ablation graph (6000 nodes, 5 edges per node): every shape
// goes to the fast path at k = 1; at k = 2 the sparse shapes stay there and
// the dense ones move to a global engine.
TEST(PlannerTest, AblationShapes) {
  const Graph graph = Pa(6000, 5, 1, 23);
  const std::vector<NodeId> all = AllNodes(graph);
  const std::map<std::string, std::string> at_k2 = {
      {"edge", "nd-pvot"},     {"wedge", "fastpath"}, {"triangle", "nd-pvot"},
      {"path4", "fastpath"},   {"claw", "fastpath"},  {"paw", "fastpath"},
      {"cycle4", "nd-pvot"},   {"diamond", "nd-pvot"}, {"clique4", "pt-bas"}};
  for (const auto& [name, text] : Skeletons()) {
    if (name == "singleton") continue;
    SCOPED_TRACE(name);
    EXPECT_EQ(Choose(graph, text, all, 1), "fastpath");
    EXPECT_EQ(Choose(graph, text, all, 2), at_k2.at(name));
  }
}

TEST(PlannerTest, HonorsFastPathOffAndExplicitEngines) {
  const Graph graph = Pa(500, 3, 1, 5);
  const Pattern triangle = Parse(kTriangle);
  const std::vector<NodeId> focal = {0, 1, 2};
  CensusOptions off;
  off.fast_path = FastPathMode::kOff;
  Plan plan = ChoosePlan(graph, triangle, focal, off);
  EXPECT_NE(plan.engine, PlanEngine::kFastPath);
  EXPECT_LT(plan.cost[0], 0);
  EXPECT_STREQ(plan.fast_path_skip, "fast path off");

  // An explicit algorithm runs exactly that engine.
  CensusOptions explicit_pvot;
  explicit_pvot.algorithm = CensusAlgorithm::kNdPvot;
  auto result = RunCensus(graph, triangle, focal, explicit_pvot);
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(result->plan, "nd-pvot");
  EXPECT_EQ(result->stats.fastpath_routed, 0u);

  // kForce runs the fast path whatever the algorithm.
  CensusOptions forced = explicit_pvot;
  forced.fast_path = FastPathMode::kForce;
  result = RunCensus(graph, triangle, focal, forced);
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(result->plan, "fastpath");
}

TEST(PlannerTest, ChoiceIsDeterministic) {
  const Graph graph = Pa(3000, 4, 3, 9);
  const std::vector<NodeId> all = AllNodes(graph);
  CensusOptions options;
  options.k = 2;
  const Pattern pattern = Parse(kLabelledTriangle);
  const Plan first = ChoosePlan(graph, pattern, all, options);
  for (int i = 0; i < 3; ++i) {
    const Plan again = ChoosePlan(graph, pattern, all, options);
    EXPECT_EQ(again.engine, first.engine);
    EXPECT_EQ(again.cost, first.cost);
  }
}

// Whatever the planner picks counts exactly what ND-BAS counts.
TEST(PlannerTest, AutoCountsMatchNdBas) {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("pa", Pa(300, 3, 3, 17));
  graphs.emplace_back("er", GenerateErdosRenyi(300, 1200, 3, 19));
  std::vector<std::pair<std::string, std::string>> patterns = Skeletons();
  patterns.emplace_back("labelled triangle", kLabelledTriangle);
  patterns.emplace_back("labelled node", kLabelledNode);
  for (const auto& [graph_name, graph] : graphs) {
    const std::vector<std::pair<std::string, std::vector<NodeId>>> focal_sets =
        {{"one node", {7}},
         {"1% sample", RndFocal(graph, 0.01, 3)},
         {"all", AllNodes(graph)}};
    for (const auto& [pattern_name, text] : patterns) {
      const Pattern pattern = Parse(text);
      for (const auto& [focal_name, focal] : focal_sets) {
        for (std::uint32_t k : {1u, 2u}) {
          for (std::uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(graph_name + " " + pattern_name + " " + focal_name +
                         " k=" + std::to_string(k) +
                         " threads=" + std::to_string(threads));
            CensusOptions reference;
            reference.algorithm = CensusAlgorithm::kNdBas;
            reference.k = k;
            reference.num_threads = threads;
            CensusOptions automatic;
            automatic.k = k;
            automatic.num_threads = threads;
            auto expected = RunCensus(graph, pattern, focal, reference);
            auto actual = RunCensus(graph, pattern, focal, automatic);
            ASSERT_TRUE(expected.ok() && actual.ok());
            EXPECT_EQ(actual->counts, expected->counts);
            EXPECT_EQ(actual->focal_state, expected->focal_state);
            const std::string plan = actual->plan;
            EXPECT_TRUE(plan == "fastpath" || plan == "nd-bas" ||
                        plan == "nd-pvot" || plan == "pt-bas")
                << plan;
          }
        }
      }
    }
  }
}

// The center index is built on first use, once, even when concurrent
// readers race for it.
TEST(PlannerTest, LazyCentersBuildOnceUnderConcurrency) {
  const Graph graph = Pa(400, 3, 1, 29);
  const GraphIndexes indexes = GraphIndexes::Build(graph);
  std::vector<const CenterDistanceIndex*> seen(4, nullptr);
  std::vector<std::thread> readers;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    readers.emplace_back(
        [&, i] { seen[i] = &indexes.Centers(graph); });
  }
  for (std::thread& t : readers) t.join();
  for (const CenterDistanceIndex* index : seen) {
    EXPECT_EQ(index, seen[0]);
  }
  EXPECT_EQ(seen[0]->NumCenters(), 24u);

  // Move-assignment into a default-constructed holder keeps it usable.
  GraphIndexes moved;
  moved = GraphIndexes::Build(graph);
  EXPECT_EQ(moved.Centers(graph).NumCenters(), 24u);
}

}  // namespace
}  // namespace egocensus
