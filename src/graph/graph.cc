#include "graph/graph.h"

#include <algorithm>

#include "util/strings.h"

namespace egocensus {

NodeId Graph::AddNode(Label label) {
  if (finalized_) return kInvalidNode;
  labels_.push_back(label);
  max_label_ = std::max(max_label_, label);
  return num_nodes_++;
}

NodeId Graph::AddNodes(std::uint32_t count, Label label) {
  if (finalized_) return kInvalidNode;
  NodeId first = num_nodes_;
  labels_.resize(labels_.size() + count, label);
  if (count > 0) max_label_ = std::max(max_label_, label);
  num_nodes_ += count;
  return first;
}

EdgeId Graph::AddEdge(NodeId u, NodeId v) {
  if (finalized_) return kInvalidEdge;
  if (u == v || u >= num_nodes_ || v >= num_nodes_) return kInvalidEdge;
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.emplace_back(u, v);
  return id;
}

void Graph::Reserve(std::uint32_t num_nodes, std::uint64_t num_edges) {
  labels_.reserve(num_nodes);
  edges_.reserve(num_edges);
}

Status Graph::SetLabel(NodeId n, Label label) {
  if (finalized_) {
    return Status::InvalidArgument("SetLabel: graph is already finalized");
  }
  if (n >= num_nodes_) return Status::OutOfRange("SetLabel: no such node");
  labels_[n] = label;
  max_label_ = std::max(max_label_, label);
  return Status::Ok();
}

bool Graph::BuildCsr(ArcMode mode, bool dedup, Csr* out) {
  const std::uint32_t n = num_nodes_;
  const bool forward = mode != ArcMode::kBackward;
  const bool backward = mode != ArcMode::kForward;

  // Pass 1: bucket the arcs by target, in edge-id order (a stable counting
  // sort, so equal targets keep ascending edge ids).
  std::vector<std::uint32_t>& bucket_end = cursor_scratch_;
  bucket_end.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    if (forward) ++bucket_end[v + 1];
    if (backward) ++bucket_end[u + 1];
  }
  for (std::uint32_t t = 0; t < n; ++t) bucket_end[t + 1] += bucket_end[t];
  const std::size_t total = bucket_end[n];
  arc_scratch_.resize(total);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const auto [u, v] = edges_[e];
    if (forward) arc_scratch_[bucket_end[v]++] = {u, e};
    if (backward) arc_scratch_[bucket_end[u]++] = {v, e};
  }
  // bucket_end[t] is now the end of bucket t (its start is bucket_end[t-1]).

  // Pass 2: stable counting sort by source, walking buckets in target
  // order, so every row comes out sorted by (target, edge id).
  out->offsets.assign(n + 1, 0);
  for (const auto& arc : arc_scratch_) ++out->offsets[arc.first + 1];
  for (std::uint32_t r = 0; r < n; ++r) out->offsets[r + 1] += out->offsets[r];
  out->targets.resize(total);
  out->edge_ids.resize(total);
  std::size_t begin = 0;
  for (NodeId t = 0; t < n; ++t) {
    for (std::size_t i = begin; i < bucket_end[t]; ++i) {
      const auto [src, eid] = arc_scratch_[i];
      const std::uint32_t pos = out->offsets[src]++;
      out->targets[pos] = t;
      out->edge_ids[pos] = eid;
    }
    begin = bucket_end[t];
  }
  // The fill advanced each row's offset to its end: shift back by one row.
  for (std::uint32_t r = n; r > 0; --r) out->offsets[r] = out->offsets[r - 1];
  out->offsets[0] = 0;

  bool repeated = false;
  std::size_t write = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::size_t row_begin = out->offsets[r];
    const std::size_t row_end = out->offsets[r + 1];
    out->offsets[r] = static_cast<std::uint32_t>(write);
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const bool same = i > row_begin &&
                        out->targets[i] == out->targets[i - 1];
      repeated = repeated || same;
      if (dedup && same) continue;
      out->targets[write] = out->targets[i];
      out->edge_ids[write] = out->edge_ids[i];
      ++write;
    }
  }
  out->offsets[n] = static_cast<std::uint32_t>(write);
  out->targets.resize(write);
  out->edge_ids.resize(write);
  return repeated;
}

Status Graph::Finalize(bool release_build_buffers) {
  if (finalized_) {
    return Status::InvalidArgument("Finalize: graph is already finalized");
  }
  if (directed_) {
    has_parallel_edges_ = BuildCsr(ArcMode::kForward, /*dedup=*/false, &out_);
    BuildCsr(ArcMode::kBackward, /*dedup=*/false, &in_);
    // Combined undirected view: both arcs of every edge, deduplicated.
    BuildCsr(ArcMode::kBoth, /*dedup=*/true, &combined_);
  } else {
    has_parallel_edges_ = BuildCsr(ArcMode::kBoth, /*dedup=*/false, &out_);
  }
  if (release_build_buffers) {
    arc_scratch_ = {};
    cursor_scratch_ = {};
  }
  finalized_ = true;
  return Status::Ok();
}

void Graph::Reset(bool directed) {
  directed_ = directed;
  finalized_ = false;
  has_parallel_edges_ = false;
  num_nodes_ = 0;
  max_label_ = 0;
  labels_.clear();
  edges_.clear();
  // The CSR vectors and the build scratch are rebuilt in place by the next
  // Finalize. Stale CSR reads are impossible because every accessor
  // asserts finalized_.
  node_attributes_.Clear();
  edge_attributes_.Clear();
}

std::span<const NodeId> Graph::OutNeighbors(NodeId n) const {
  assert(finalized_);
  return out_.NeighborsOf(n);
}

std::span<const EdgeId> Graph::OutEdgeIds(NodeId n) const {
  assert(finalized_);
  return {out_.edge_ids.data() + out_.offsets[n],
          out_.edge_ids.data() + out_.offsets[n + 1]};
}

std::span<const NodeId> Graph::InNeighbors(NodeId n) const {
  assert(finalized_);
  return directed_ ? in_.NeighborsOf(n) : out_.NeighborsOf(n);
}

std::span<const NodeId> Graph::Neighbors(NodeId n) const {
  assert(finalized_);
  return directed_ ? combined_.NeighborsOf(n) : out_.NeighborsOf(n);
}

namespace {

bool SortedContains(std::span<const NodeId> nodes, NodeId target) {
  return std::binary_search(nodes.begin(), nodes.end(), target);
}

}  // namespace

bool Graph::HasEdge(NodeId u, NodeId v) const {
  return SortedContains(OutNeighbors(u), v);
}

bool Graph::HasUndirectedEdge(NodeId u, NodeId v) const {
  return SortedContains(Neighbors(u), v);
}

std::optional<EdgeId> Graph::FindEdge(NodeId u, NodeId v) const {
  assert(finalized_);
  auto nbrs = out_.NeighborsOf(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  std::size_t idx = out_.offsets[u] + (it - nbrs.begin());
  return out_.edge_ids[idx];
}

std::optional<AttributeValue> Graph::GetNodeAttribute(
    NodeId n, const std::string& name) const {
  if (EqualsIgnoreCase(name, "LABEL")) {
    return AttributeValue(static_cast<std::int64_t>(labels_[n]));
  }
  if (EqualsIgnoreCase(name, "ID")) {
    return AttributeValue(static_cast<std::int64_t>(n));
  }
  return node_attributes_.Get(n, name);
}

}  // namespace egocensus
