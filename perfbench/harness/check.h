#ifndef PERFBENCH_HARNESS_CHECK_H_
#define PERFBENCH_HARNESS_CHECK_H_

// Answer checking. A reference is the per-node count of one query class
// over every node, computed once per class with a pinned engine (ND-PVOT,
// fast path off) on the same graph; an answer is correct when its rows are
// exactly the expected focal nodes, in order, each with its reference
// count.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/workload.h"
#include "lang/engine.h"
#include "util/status.h"

namespace perfbench {

using Counts = std::vector<std::uint64_t>;

/// Per-node counts of `cls` over all nodes with the pinned engine, counting
/// on `threads` workers (counts do not depend on it).
[[nodiscard]] egocensus::Result<Counts> ReferenceCounts(
    const Graph& graph, const egocensus::GraphIndexes* indexes,
    const QueryClass& cls, std::uint32_t threads);

/// The nodes `cls.focal` selects with RND() seeded by `rnd_seed`, in id
/// order (the row order of an answer).
[[nodiscard]] egocensus::Result<std::vector<NodeId>> FocalSample(
    const Graph& graph, const QueryClass& cls, std::uint64_t rnd_seed);

/// Rows of a two-column `ID,count` CSV answer (header line skipped).
struct CountRows {
  std::vector<NodeId> ids;
  Counts counts;
};
[[nodiscard]] bool ParseCountCsv(std::string_view csv, CountRows* rows);

/// True when `csv` holds exactly `focal` (in order) with reference counts.
bool AnswerMatches(std::string_view csv, const std::vector<NodeId>& focal,
                   const Counts& reference);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CHECK_H_
