#include "lang/analyzer.h"

#include <algorithm>

namespace egocensus {
namespace {

bool AliasKnown(const Query& query, const std::string& alias) {
  if (alias.empty()) return query.from_aliases.size() == 1;
  return std::find(query.from_aliases.begin(), query.from_aliases.end(),
                   alias) != query.from_aliases.end();
}

const Pattern* ResolvePattern(const Query& query,
                              std::span<const Pattern> registered,
                              const std::string& name) {
  for (const auto& p : query.patterns) {
    if (p.name() == name) return &p;
  }
  for (const auto& p : registered) {
    if (p.name() == name) return &p;
  }
  return nullptr;
}

[[nodiscard]] Status ValidateWhere(const Query& query, const WhereExpr* expr) {
  if (expr == nullptr) return Status::Ok();
  switch (expr->kind) {
    case WhereExpr::Kind::kAnd:
    case WhereExpr::Kind::kOr: {
      Status s = ValidateWhere(query, expr->left.get());
      if (!s.ok()) return s;
      return ValidateWhere(query, expr->right.get());
    }
    case WhereExpr::Kind::kNot:
      return ValidateWhere(query, expr->left.get());
    case WhereExpr::Kind::kCompare: {
      for (const WhereOperand* op : {&expr->lhs, &expr->rhs}) {
        if (op->kind == WhereOperand::Kind::kAttr &&
            !AliasKnown(query, op->alias)) {
          return Status::InvalidArgument("unknown table alias '" + op->alias +
                                         "' in WHERE");
        }
      }
      return Status::Ok();
    }
  }
  return Status::Internal("bad WHERE node");
}

}  // namespace

[[nodiscard]] Result<AnalyzedQuery> AnalyzeQuery(const Query& query,
                                   std::span<const Pattern> registered) {
  AnalyzedQuery analyzed;
  analyzed.query = &query;
  if (query.from_aliases.empty()) {
    return Status::InvalidArgument("query has no FROM table");
  }
  analyzed.pairwise = query.from_aliases.size() == 2;
  if (analyzed.pairwise &&
      (query.from_aliases[0].empty() || query.from_aliases[1].empty() ||
       query.from_aliases[0] == query.from_aliases[1])) {
    return Status::InvalidArgument(
        "two-table queries need two distinct aliases (FROM nodes AS n1, "
        "nodes AS n2)");
  }

  for (std::size_t i = 0; i < query.select.size(); ++i) {
    const SelectItem& item = query.select[i];
    if (item.kind == SelectItem::Kind::kId) {
      if (!AliasKnown(query, item.alias)) {
        return Status::InvalidArgument("unknown alias '" + item.alias +
                                       "' in SELECT");
      }
      continue;
    }
    const CountSpec& spec = item.count;
    const Pattern* pattern = ResolvePattern(query, registered, spec.pattern);
    if (pattern == nullptr) {
      return Status::NotFound("unknown pattern '" + spec.pattern + "'");
    }
    if (spec.count_subpattern &&
        pattern->FindSubpattern(spec.subpattern) == nullptr) {
      return Status::NotFound("pattern '" + spec.pattern +
                              "' has no subpattern '" + spec.subpattern + "'");
    }
    const NeighborhoodSpec& n = spec.neighborhood;
    if (analyzed.pairwise) {
      if (n.kind == NeighborhoodSpec::Kind::kSubgraph) {
        return Status::InvalidArgument(
            "two-table queries require SUBGRAPH-INTERSECTION or "
            "SUBGRAPH-UNION");
      }
      bool covers_both =
          (n.ref1 == query.from_aliases[0] && n.ref2 == query.from_aliases[1]) ||
          (n.ref1 == query.from_aliases[1] && n.ref2 == query.from_aliases[0]);
      if (!covers_both) {
        return Status::InvalidArgument(
            "pairwise neighborhood must reference both table aliases");
      }
    } else {
      if (n.kind != NeighborhoodSpec::Kind::kSubgraph) {
        return Status::InvalidArgument(
            "single-table queries support only SUBGRAPH neighborhoods");
      }
      if (!AliasKnown(query, n.ref1)) {
        return Status::InvalidArgument("unknown alias '" + n.ref1 +
                                       "' in SUBGRAPH");
      }
    }
    analyzed.counts.push_back({i, pattern, &spec});
  }
  Status s = ValidateWhere(query, query.where.get());
  if (!s.ok()) return s;
  for (const auto& order : query.order_by) {
    if (order.column < 1 || order.column > query.select.size()) {
      return Status::InvalidArgument("ORDER BY column " +
                                     std::to_string(order.column) +
                                     " out of range");
    }
  }
  return analyzed;
}

}  // namespace egocensus
