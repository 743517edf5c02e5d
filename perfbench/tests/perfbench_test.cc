// Tests of the benchmark's own machinery: seeded inputs are reproducible,
// the seed moves the samples, references are stable, answers are checked,
// and the percentile helper refuses what the sample cannot support.

#include <gtest/gtest.h>

#include <sstream>

#include "harness/check.h"
#include "harness/stats.h"
#include "harness/workload.h"
#include "lang/engine.h"

namespace perfbench {
namespace {

Graph SmallGraph() { return MakeGraph({600, 4, 4, 7}); }

TEST(Workload, SameSeedSameReadSequence) {
  std::vector<ReadRequest> a = BuildReadSequence(5, 10, Entry::kDaemon);
  std::vector<ReadRequest> b = BuildReadSequence(5, 10, Entry::kDaemon);
  ASSERT_EQ(a.size(), 10 * kReadBlock);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].rnd_seed, b[i].rnd_seed);
  }
}

TEST(Workload, EveryBlockHoldsTheClassShares) {
  for (Entry entry : {Entry::kDaemon, Entry::kCli}) {
    std::vector<ReadRequest> sequence = BuildReadSequence(9, 3, entry);
    for (std::size_t block = 0; block < 3; ++block) {
      std::vector<std::uint32_t> seen(ReadClasses().size(), 0);
      for (std::size_t i = 0; i < kReadBlock; ++i) {
        ++seen[sequence[block * kReadBlock + i].cls];
      }
      for (std::size_t c = 0; c < seen.size(); ++c) {
        const QueryClass& cls = ReadClasses()[c];
        EXPECT_EQ(seen[c], entry == Entry::kCli ? cls.cli_share
                                                : cls.daemon_share);
      }
    }
  }
}

TEST(Workload, OtherSeedChangesFocalSamples) {
  Graph graph = SmallGraph();
  std::vector<ReadRequest> a = BuildReadSequence(1, 1, Entry::kDaemon);
  std::vector<ReadRequest> b = BuildReadSequence(2, 1, Entry::kDaemon);
  const QueryClass& tri1 = ReadClasses()[0];
  ASSERT_EQ(tri1.name, "tri1");
  auto first_tri1 = [](const std::vector<ReadRequest>& s) {
    for (const ReadRequest& r : s) {
      if (r.cls == 0) return r.rnd_seed;
    }
    return std::uint64_t{0};
  };
  ASSERT_NE(first_tri1(a), first_tri1(b));
  auto focal_a = FocalSample(graph, tri1, first_tri1(a));
  auto focal_b = FocalSample(graph, tri1, first_tri1(b));
  auto focal_a_again = FocalSample(graph, tri1, first_tri1(a));
  ASSERT_TRUE(focal_a.ok());
  ASSERT_TRUE(focal_b.ok());
  ASSERT_TRUE(focal_a_again.ok());
  EXPECT_EQ(*focal_a, *focal_a_again);
  EXPECT_NE(*focal_a, *focal_b);
}

TEST(Workload, SameSeedSameUpdateStream) {
  Graph graph = SmallGraph();
  std::vector<Write> a = BuildWriteStream(graph, 3, 2 * kWriteCycle);
  std::vector<Write> b = BuildWriteStream(graph, 3, 2 * kWriteCycle);
  std::vector<Write> c = BuildWriteStream(graph, 4, 2 * kWriteCycle);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(UpdateText(a[i]), UpdateText(b[i]));
  }
  EXPECT_NE(UpdateText(a[0]), UpdateText(c[0]));
}

TEST(Workload, UpdateStreamReturnsToBase) {
  Graph graph = SmallGraph();
  std::vector<Write> stream = BuildWriteStream(graph, 11, 2 * kWriteCycle);
  std::size_t singles = 0, batches = 0;
  for (std::size_t i = 0; i < stream.size(); i += 2) {
    const Write& insert = stream[i];
    const Write& remove = stream[i + 1];
    EXPECT_TRUE(insert.insert);
    EXPECT_TRUE(remove.RestoresBase());
    EXPECT_EQ(insert.edges, remove.edges);
    for (const Edge& e : insert.edges) {
      EXPECT_NE(e.first, e.second);
      EXPECT_FALSE(graph.HasEdge(e.first, e.second));
    }
    (insert.single() ? singles : batches) += 2;
  }
  EXPECT_EQ(batches, 4u);
  EXPECT_EQ(singles, 2 * (kWriteCycle - 2));
  EXPECT_EQ(stream[kWriteCycle - 2].edges.size(), kBatchEdges);
}

TEST(Workload, SameSeedSameCliSequence) {
  std::vector<ReadRequest> a = BuildReadSequence(8, 5, Entry::kCli);
  std::vector<ReadRequest> b = BuildReadSequence(8, 5, Entry::kCli);
  std::vector<ReadRequest> daemon = BuildReadSequence(8, 5, Entry::kDaemon);
  ASSERT_EQ(a.size(), 5 * kReadBlock);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].rnd_seed, b[i].rnd_seed);
  }
  EXPECT_NE(a[0].rnd_seed, daemon[0].rnd_seed);
}

TEST(Check, ReferenceHashesAreStable) {
  Graph graph = SmallGraph();
  egocensus::GraphIndexes indexes = egocensus::GraphIndexes::Build(graph);
  for (const QueryClass& cls : ReadClasses()) {
    auto one = ReferenceCounts(graph, &indexes, cls, 1);
    auto two = ReferenceCounts(graph, &indexes, cls, 2);
    ASSERT_TRUE(one.ok()) << cls.name;
    ASSERT_TRUE(two.ok()) << cls.name;
    ASSERT_EQ(one->size(), graph.NumNodes());
    EXPECT_EQ(HashCounts(*one), HashCounts(*two)) << cls.name;
  }
}

TEST(Check, AnswersMatchTheReferenceOnly) {
  Graph graph = SmallGraph();
  egocensus::GraphIndexes indexes = egocensus::GraphIndexes::Build(graph);
  const QueryClass& ltri1 = ReadClasses()[3];
  auto reference = ReferenceCounts(graph, &indexes, ltri1, 1);
  ASSERT_TRUE(reference.ok());
  auto focal = FocalSample(graph, ltri1, 42);
  ASSERT_TRUE(focal.ok());

  // The default-routed engine (what the daemon runs) answers correctly.
  egocensus::QueryEngine engine(graph, &indexes);
  egocensus::QueryEngine::Options options;
  options.rnd_seed = 42;
  auto table = engine.Execute(ltri1.Text(), options);
  ASSERT_TRUE(table.ok());
  std::ostringstream csv;
  table->WriteCsv(csv);
  EXPECT_TRUE(AnswerMatches(csv.str(), *focal, *reference));

  Counts wrong = *reference;
  ASSERT_FALSE(focal->empty());
  wrong[focal->front()] += 1;
  EXPECT_FALSE(AnswerMatches(csv.str(), *focal, wrong));
  std::vector<NodeId> fewer(focal->begin() + 1, focal->end());
  EXPECT_FALSE(AnswerMatches(csv.str(), fewer, *reference));
}

TEST(Stats, PercentileNeedsTenSamplesBeyond) {
  EXPECT_FALSE(PercentileSupported(19, 500));
  EXPECT_TRUE(PercentileSupported(20, 500));
  EXPECT_FALSE(PercentileSupported(199, 950));
  EXPECT_TRUE(PercentileSupported(200, 950));
  EXPECT_FALSE(PercentileSupported(99, 900));
  EXPECT_TRUE(PercentileSupported(100, 900));
  EXPECT_FALSE(PercentileSupported(0, 500));
  EXPECT_FALSE(PercentileSupported(1000, 1000));

  std::vector<double> nineteen(19, 1.0);
  EXPECT_FALSE(Percentile(nineteen, 500).has_value());
  EXPECT_FALSE(Percentile({}, 500).has_value());
}

TEST(Stats, NearestRank) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(*Percentile(samples, 950), 190.0);
  EXPECT_EQ(*Percentile(samples, 500), 100.0);
  EXPECT_EQ(*Mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_FALSE(Mean({}).has_value());
}

}  // namespace
}  // namespace perfbench
