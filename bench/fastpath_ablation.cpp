// Fast-path ablation (docs/FAST_PATH.md): for every connected <= 4-node
// shape, the same census through the combinatorial kernels, ND-PVOT with
// the CN matcher, ND-PVOT with the GQL matcher, and the planner's choice
// (CensusAlgorithm::kAuto). Emits a JSON document (stdout) with per-shape
// wall-clock, speedup-vs-CN / speedup-vs-GQL, the planner's engine and its
// auto/best ratio against the fastest of the other three columns, and a
// bit_identical flag comparing the fast-path and auto counts against the
// CN reference — CI runs this on a tiny graph and asserts bit_identical
// for every shape; at default scale the triangle and wedge rows
// demonstrate the >= 5x the fast path exists for.
//
//   fastpath_ablation [--nodes N] [--edges-per-node M] [--k K] [--reps R]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "pattern/pattern_parser.h"
#include "pattern/shape.h"

int main(int argc, char** argv) {
  using namespace egocensus;
  using namespace egocensus::bench;
  InitObsFromEnv();

  std::uint32_t nodes = Scaled(6000);
  std::uint32_t edges_per_node = 5;
  std::uint32_t k = 1;
  int reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--edges-per-node") == 0) {
      edges_per_node = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--k") == 0) {
      k = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(argv[i + 1]);
    } else {
      std::cerr << "unknown flag " << argv[i] << "\n";
      return 2;
    }
  }

  GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = edges_per_node;
  gen.seed = 23;
  Graph graph = GeneratePreferentialAttachment(gen);
  auto focal = AllNodes(graph);

  struct ShapeBench {
    const char* label;
    const char* text;
  };
  const ShapeBench shapes[] = {
      {"edge", "PATTERN p {?A-?B;}"},
      {"wedge", "PATTERN p {?A-?B; ?B-?C;}"},
      {"triangle", "PATTERN p {?A-?B; ?B-?C; ?C-?A;}"},
      {"path4", "PATTERN p {?A-?B; ?B-?C; ?C-?D;}"},
      {"claw", "PATTERN p {?A-?B; ?A-?C; ?A-?D;}"},
      {"paw", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?A-?D;}"},
      {"cycle4", "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?A;}"},
      {"diamond", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D;}"},
      {"clique4", "PATTERN p {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;}"},
  };

  std::cout << "{\n  \"bench\": \"fastpath_ablation\",\n"
            << "  \"nodes\": " << graph.NumNodes()
            << ", \"edges\": " << graph.NumEdges() << ", \"k\": " << k
            << ", \"reps\": " << reps << ",\n  \"shapes\": [\n";
  bool all_identical = true;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    auto pattern = ParsePattern(shapes[i].text);
    if (!pattern.ok()) {
      std::cerr << pattern.status().ToString() << "\n";
      return 1;
    }

    CensusOptions cn;
    cn.fast_path = FastPathMode::kOff;
    cn.algorithm = CensusAlgorithm::kNdPvot;
    cn.k = k;
    CensusOptions gql = cn;
    gql.use_gql_matcher = true;
    CensusOptions fast;
    fast.fast_path = FastPathMode::kForce;
    fast.k = k;
    CensusOptions automatic;
    automatic.k = k;

    CensusStats cn_stats;
    double cn_s = TimeCensusBestOf(graph, *pattern, focal, cn, reps, &cn_stats);
    RequireGenericEngine(cn_stats, "cn");
    double gql_s = TimeCensusBestOf(graph, *pattern, focal, gql, reps);
    double fast_s = TimeCensusBestOf(graph, *pattern, focal, fast, reps);
    double auto_s = TimeCensusBestOf(graph, *pattern, focal, automatic, reps);
    const double best_s = std::min({fast_s, cn_s, gql_s});

    // Bit-identity check outside the timed loop.
    auto reference = RunCensus(graph, *pattern, focal, cn);
    auto routed = RunCensus(graph, *pattern, focal, fast);
    auto planned = RunCensus(graph, *pattern, focal, automatic);
    if (!reference.ok() || !routed.ok() || !planned.ok()) {
      std::cerr << "census failed for " << shapes[i].label << "\n";
      return 1;
    }
    bool identical = reference->counts == routed->counts &&
                     reference->counts == planned->counts;
    all_identical = all_identical && identical;

    std::cout << "    {\"shape\": \"" << shapes[i].label << "\""
              << ", \"fastpath_s\": " << fast_s << ", \"cn_s\": " << cn_s
              << ", \"gql_s\": " << gql_s << ", \"auto_s\": " << auto_s
              << ", \"auto_plan\": \"" << planned->plan << "\""
              << ", \"auto_over_best\": " << (best_s > 0 ? auto_s / best_s : 0)
              << ", \"speedup_vs_cn\": " << (fast_s > 0 ? cn_s / fast_s : 0)
              << ", \"speedup_vs_gql\": " << (fast_s > 0 ? gql_s / fast_s : 0)
              << ", \"bit_identical\": " << (identical ? "true" : "false")
              << "}" << (i + 1 < std::size(shapes) ? "," : "") << "\n";
  }
  std::cout << "  ],\n  \"all_bit_identical\": "
            << (all_identical ? "true" : "false") << "\n}\n";
  return all_identical ? 0 : 1;
}
