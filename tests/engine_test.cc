#include "lang/engine.h"
#include "lang/query_options.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "pattern/catalog.h"
#include "tests/test_util.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

std::int64_t IntAt(const ResultTable& t, std::size_t row, std::size_t col) {
  return std::get<std::int64_t>(t.At(row, col));
}

// Finds the row whose first column equals `id` and returns column `col`.
std::int64_t CountFor(const ResultTable& t, std::int64_t id,
                      std::size_t col = 1) {
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    if (IntAt(t, r, 0) == id) return IntAt(t, r, col);
  }
  ADD_FAILURE() << "row for id " << id << " not found";
  return -1;
}

TEST(EngineTest, SquareCensusEndToEnd) {
  // Two squares sharing edge 2-3: {0,1,2,3}... build a 6-cycle plus chord
  // making exactly one 4-cycle: nodes 0-1-2-3 square, tail 4.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN square { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }\n"
      "SELECT ID, COUNTP(square, SUBGRAPH(ID, 2)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 5u);
  EXPECT_EQ(CountFor(*result, 0), 1);
  EXPECT_EQ(CountFor(*result, 3), 1);
  // Node 4 reaches {3, 0, 2} within 2 hops but node 1 is 3 hops away.
  EXPECT_EQ(CountFor(*result, 4), 0);
}

TEST(EngineTest, RegisteredPatternUsableByName) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CountFor(*result, 0), 1);
  EXPECT_EQ(CountFor(*result, 3), 0);
}

TEST(EngineTest, InlinePatternShadowsRegistered) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));  // named clq3-unlb
  // Inline pattern with the same name but different shape (single edge).
  auto result = engine.Execute(
      "PATTERN clq3-unlb {?A-?B;}\n"
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountFor(*result, 1), 2);  // edges, not triangles
}

TEST(EngineTest, WhereFiltersFocalNodes) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN e {?A-?B;}\n"
      "SELECT ID, COUNTP(e, SUBGRAPH(ID, 1)) FROM nodes WHERE LABEL = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 2u);  // nodes 1 and 3 only
  EXPECT_EQ(IntAt(*result, 0, 0), 1);
  EXPECT_EQ(IntAt(*result, 1, 0), 3);
}

TEST(EngineTest, WhereRndIsDeterministicPerSeed) {
  GeneratorOptions opts;
  opts.num_nodes = 200;
  opts.seed = 61;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  QueryEngine::Options options;
  options.rnd_seed = 5;
  auto a = engine.Execute("SELECT ID FROM nodes WHERE RND() < 0.3", options);
  auto b = engine.Execute("SELECT ID FROM nodes WHERE RND() < 0.3", options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumRows(), b->NumRows());
  EXPECT_GT(a->NumRows(), 30u);
  EXPECT_LT(a->NumRows(), 90u);
}

TEST(EngineTest, CoordinatorTriadQueryEndToEnd) {
  Graph g(true);
  g.AddNodes(4);
  for (NodeId n = 0; n < 4; ++n) CheckOk(g.SetLabel(n, 2), "test fixture setup");
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  CheckOk(g.Finalize(), "test fixture setup");
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN triad {\n"
      "  ?A->?B; ?B->?C; ?A!->?C;\n"
      "  [?A.LABEL=?B.LABEL]; [?B.LABEL=?C.LABEL];\n"
      "  SUBPATTERN coordinator {?B;}\n"
      "}\n"
      "SELECT ID, COUNTSP(coordinator, triad, SUBGRAPH(ID, 0)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CountFor(*result, 1), 2);  // 0->1->2 and 0->1->3
  EXPECT_EQ(CountFor(*result, 0), 0);
}

TEST(EngineTest, PairwiseIntersectionQuery) {
  // Path 0-1-2.
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN single_node {?A;}\n"
      "SELECT n1.ID, n2.ID,\n"
      "  COUNTP(single_node, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1))\n"
      "FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pairs with nonzero intersection counts and n1 > n2:
  // (1,0) -> |{0,1}| = 2; (2,0) -> |{1}| = 1; (2,1) -> |{1,2}| = 2.
  ASSERT_EQ(result->NumRows(), 3u);
  std::int64_t total = 0;
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    EXPECT_GT(IntAt(*result, r, 0), IntAt(*result, r, 1));  // WHERE holds
    total += IntAt(*result, r, 2);
  }
  EXPECT_EQ(total, 5);
}

TEST(EngineTest, EngineAgreesWithDirectCensus) {
  GeneratorOptions opts;
  opts.num_nodes = 100;
  opts.num_labels = 4;
  opts.seed = 63;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(true));
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes");
  ASSERT_TRUE(result.ok());

  CensusOptions census;
  census.k = 2;
  census.algorithm = CensusAlgorithm::kNdBas;
  Pattern tri = MakeTriangle(true);
  auto focal = AllNodes(g);
  auto direct = RunCensus(g, tri, focal, census);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(result->NumRows(), g.NumNodes());
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    NodeId n = static_cast<NodeId>(IntAt(*result, r, 0));
    EXPECT_EQ(static_cast<std::uint64_t>(IntAt(*result, r, 1)),
              direct->counts[n]);
  }
}

TEST(EngineTest, ForcedAlgorithmRespected) {
  GeneratorOptions opts;
  opts.num_nodes = 80;
  opts.seed = 65;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  QueryEngine::Options options;
  options.auto_algorithm = false;
  options.census.algorithm = CensusAlgorithm::kPtBas;
  auto forced = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes", options);
  ASSERT_TRUE(forced.ok());
  auto auto_result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(auto_result.ok());
  for (std::size_t r = 0; r < forced->NumRows(); ++r) {
    EXPECT_EQ(IntAt(*forced, r, 1), IntAt(*auto_result, r, 1));
  }
}

TEST(EngineTest, LastStatsPopulated) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));
  // num_matches is a global-matcher stat: pin an engine that runs one.
  QueryEngine::Options options;
  options.auto_algorithm = false;
  options.census.algorithm = CensusAlgorithm::kNdPvot;
  options.census.fast_path = FastPathMode::kOff;
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(engine.last_stats().size(), 1u);
  EXPECT_EQ(engine.last_stats()[0].num_matches, 1u);

  // A routed run reports itself in stats instead.
  auto routed = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(routed.ok());
  ASSERT_EQ(engine.last_stats().size(), 1u);
  EXPECT_EQ(engine.last_stats()[0].fastpath_routed, 1u);
}

TEST(EngineTest, SemanticErrors) {
  Graph g = MakeGraph(2, {{0, 1}});
  QueryEngine engine(g);
  // Unknown pattern.
  EXPECT_FALSE(
      engine.Execute("SELECT COUNTP(nope, SUBGRAPH(ID, 1)) FROM nodes").ok());
  // Unknown subpattern.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A-?B;} SELECT COUNTSP(s, p, "
                            "SUBGRAPH(ID, 1)) FROM nodes")
                   .ok());
  // Pairwise neighborhood in single-table query.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A;} SELECT COUNTP(p, "
                            "SUBGRAPH-INTERSECTION(ID, ID, 1)) FROM nodes")
                   .ok());
  // Single-node neighborhood in pairwise query.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A;} SELECT COUNTP(p, SUBGRAPH(n1.ID, "
                            "1)) FROM nodes AS n1, nodes AS n2")
                   .ok());
  // Unknown alias in WHERE.
  EXPECT_FALSE(
      engine.Execute("SELECT ID FROM nodes WHERE zz.LABEL = 1").ok());
}

TEST(EngineTest, ResultTableSortAndCsv) {
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok());
  result->SortByColumnDesc(1);
  EXPECT_EQ(IntAt(*result, 0, 0), 0);  // hub first
  std::ostringstream os;
  result->WriteCsv(os);
  EXPECT_NE(os.str().find("ID,COUNTP(single_edge,1)"), std::string::npos);
  EXPECT_FALSE(result->ToString().empty());
}

}  // namespace
}  // namespace egocensus

namespace egocensus {
namespace {

TEST(EngineOrderLimitTest, OrderByCountDescWithLimit) {
  Graph g = testing::MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes "
      "ORDER BY 2 DESC LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 3u);
  // Node 0 has the densest ego net.
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 0)), 0);
  // Counts nonincreasing.
  for (std::size_t r = 1; r < result->NumRows(); ++r) {
    EXPECT_GE(std::get<std::int64_t>(result->At(r - 1, 1)),
              std::get<std::int64_t>(result->At(r, 1)));
  }
}

TEST(EngineOrderLimitTest, OrderAscAndMultipleKeys) {
  Graph g = testing::MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes "
      "ORDER BY 2 ASC, 1 DESC");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 4u);
  // Smallest counts first; ties broken by id descending.
  EXPECT_LE(std::get<std::int64_t>(result->At(0, 1)),
            std::get<std::int64_t>(result->At(3, 1)));
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 0)), 3);  // count 1, id desc
  EXPECT_EQ(std::get<std::int64_t>(result->At(1, 0)), 0);
}

TEST(EngineOrderLimitTest, LimitZeroAndOutOfRangeColumn) {
  Graph g = testing::MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto empty = engine.Execute("SELECT ID FROM nodes LIMIT 0");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumRows(), 0u);
  EXPECT_FALSE(engine.Execute("SELECT ID FROM nodes ORDER BY 5").ok());
  EXPECT_FALSE(engine.Execute("SELECT ID FROM nodes ORDER BY 0").ok());
}

TEST(EngineOrderLimitTest, PairwiseOrderLimit) {
  Graph g = testing::MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN n {?A;}\n"
      "SELECT n1.ID, n2.ID, "
      "COUNTP(n, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) "
      "FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID "
      "ORDER BY 3 DESC LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 2)), 2);
}

TEST(EngineCachingTest, RepeatedQueriesConsistent) {
  GeneratorOptions opts;
  opts.num_nodes = 120;
  opts.num_labels = 4;
  opts.seed = 67;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(true));
  const char* query = "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes";
  auto first = engine.Execute(query);
  auto second = engine.Execute(query);  // uses cached indexes
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->NumRows(), second->NumRows());
  for (std::size_t r = 0; r < first->NumRows(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(first->At(r, 1)),
              std::get<std::int64_t>(second->At(r, 1)));
  }
}

TEST(QueryOptionsTest, OneParserForFlagsAndHeaders) {
  QueryEngine::Options defaults;
  ASSERT_TRUE(ParseQueryOptions({}, &defaults).ok());
  EXPECT_TRUE(defaults.auto_algorithm);
  EXPECT_EQ(defaults.census.algorithm, CensusAlgorithm::kAuto);
  EXPECT_EQ(defaults.census.fast_path, FastPathMode::kAuto);
  EXPECT_EQ(defaults.rnd_seed, 99u);

  QueryEngine::Options options;
  ASSERT_TRUE(ParseQueryOptions({{"algorithm", "ND-PVOT"},
                                 {"matcher", "gql"},
                                 {"threads", "4"},
                                 {"seed", "12"},
                                 {"degrade-approx", "250"}},
                                &options)
                  .ok());
  EXPECT_FALSE(options.auto_algorithm);
  EXPECT_EQ(options.census.algorithm, CensusAlgorithm::kNdPvot);
  // An explicit engine no longer switches the fast path off by itself:
  // it simply does not run unless forced.
  EXPECT_EQ(options.census.fast_path, FastPathMode::kAuto);
  EXPECT_TRUE(options.census.use_gql_matcher);
  EXPECT_EQ(options.census.num_threads, 4u);
  EXPECT_EQ(options.rnd_seed, 12u);
  EXPECT_TRUE(options.census.degrade_to_approx);
  EXPECT_DOUBLE_EQ(options.census.degrade_sample_rate, 0.25);

  QueryEngine::Options automatic;
  ASSERT_TRUE(ParseQueryOptions({{"algorithm", "auto"}, {"fast_path", "off"}},
                                &automatic)
                  .ok());
  EXPECT_TRUE(automatic.auto_algorithm);
  EXPECT_EQ(automatic.census.fast_path, FastPathMode::kOff);

  for (const QuerySettings& bad :
       {QuerySettings{{"algorithm", "pt-fast"}},
        QuerySettings{{"matcher", "vf2"}},
        QuerySettings{{"fast_path", "sometimes"}},
        QuerySettings{{"threads", "four"}},
        QuerySettings{{"seed", ""}}}) {
    QueryEngine::Options rejected;
    Status status = ParseQueryOptions(bad, &rejected);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad.begin()->first;
  }
}

TEST(EngineTest, LastExecReportsThePlan) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(engine.last_exec().size(), 1u);
  EXPECT_STREQ(engine.last_exec()[0].plan, "fastpath");

  QueryEngine::Options pinned;
  pinned.auto_algorithm = false;
  pinned.census.algorithm = CensusAlgorithm::kPtBas;
  result = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes", pinned);
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(engine.last_exec()[0].plan, "pt-bas");
}

}  // namespace
}  // namespace egocensus
