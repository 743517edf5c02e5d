#ifndef EGOCENSUS_LANG_ANALYZER_H_
#define EGOCENSUS_LANG_ANALYZER_H_

#include <span>
#include <vector>

#include "lang/ast.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// Semantically validated query, with pattern names resolved against the
/// query's inline patterns and any externally registered patterns.
struct AnalyzedQuery {
  const Query* query = nullptr;
  bool pairwise = false;  // two FROM tables

  struct CountItem {
    std::size_t select_index = 0;  // position in query->select
    const Pattern* pattern = nullptr;
    const CountSpec* spec = nullptr;
  };
  std::vector<CountItem> counts;
};

/// Validates the query:
///  - every alias referenced exists in FROM;
///  - single-table queries use only SUBGRAPH neighborhoods; two-table
///    queries use only SUBGRAPH-INTERSECTION/UNION referencing both aliases;
///  - pattern names resolve (inline patterns shadow registered ones);
///  - COUNTSP subpatterns exist in their patterns.
[[nodiscard]] Result<AnalyzedQuery> AnalyzeQuery(const Query& query,
                                   std::span<const Pattern> registered);

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_ANALYZER_H_
