#include "graph/io.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

namespace egocensus {

[[nodiscard]] Status SaveGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open for write: " + path);
  out << "egocensus-graph 1 " << (graph.directed() ? 1 : 0) << ' '
      << graph.NumNodes() << ' ' << graph.NumEdges() << '\n';
  bool any_label = false;
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    if (graph.label(n) != kDefaultLabel) {
      any_label = true;
      break;
    }
  }
  out << (any_label ? 1 : 0) << '\n';
  if (any_label) {
    for (NodeId n = 0; n < graph.NumNodes(); ++n) {
      out << graph.label(n) << (n + 1 == graph.NumNodes() ? '\n' : ' ');
    }
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    auto [u, v] = graph.EdgeEndpoints(e);
    out << u << ' ' << v << '\n';
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

namespace {

/// Line-tracking token scanner over one in-memory copy of the input. Every
/// parse error it produces names the 1-based line number and the offending
/// token, so a malformed file reports exactly where it went wrong instead
/// of a generic "bad header" (or, worse, silently mis-reading). Error text
/// is built only on the error path.
class Scanner {
 public:
  Scanner(std::string_view text, const std::string& source)
      : text_(text), source_(source) {}

  /// Advances to the next line (possibly empty). False at end of input; a
  /// final newline does not start another line.
  bool NextLine() {
    if (next_ >= text_.size()) return false;
    pos_ = next_;
    std::size_t nl = text_.find('\n', pos_);
    line_end_ = nl == std::string_view::npos ? text_.size() : nl;
    next_ = line_end_ + 1;
    ++line_no_;
    return true;
  }

  /// Next whitespace-separated token of the current line.
  bool NextToken(std::string_view* out) {
    while (pos_ < line_end_ && IsSpace(text_[pos_])) ++pos_;
    if (pos_ == line_end_) return false;
    std::size_t begin = pos_;
    while (pos_ < line_end_ && !IsSpace(text_[pos_])) ++pos_;
    *out = text_.substr(begin, pos_ - begin);
    return true;
  }

  [[nodiscard]] Status Error(const std::string& what) const {
    return Status::ParseError(source_ + " line " + std::to_string(line_no_) +
                              ": " + what);
  }

  /// Rejects trailing tokens on the current line, naming the first one.
  [[nodiscard]] Status ExpectEndOfLine() {
    std::string_view extra;
    if (NextToken(&extra)) {
      return Error("trailing token '" + std::string(extra) + "'");
    }
    return Status::Ok();
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  std::string_view text_;
  const std::string& source_;
  std::size_t pos_ = 0;       // cursor inside the current line
  std::size_t line_end_ = 0;  // end of the current line
  std::size_t next_ = 0;      // start of the next line
  std::size_t line_no_ = 0;
};

/// Names the field a number is read for, e.g. "label for node 7"; the
/// index suffix is formatted only when an error is reported.
struct Field {
  const char* name;
  std::uint64_t index = ~0ull;

  std::string ToString() const {
    return index == ~0ull ? std::string(name)
                          : std::string(name) + " " + std::to_string(index);
  }
};

/// Reads one unsigned decimal token <= max from the current line.
[[nodiscard]] Status ReadUint(Scanner& scanner, const Field& field,
                              std::uint64_t max, std::uint64_t* out) {
  std::string_view token;
  if (!scanner.NextToken(&token)) {
    return scanner.Error("missing " + field.ToString());
  }
  std::uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return scanner.Error("bad " + field.ToString() + " '" +
                           std::string(token) +
                           "' (expected unsigned integer)");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > max) {
      return scanner.Error(field.ToString() + " '" + std::string(token) +
                           "' out of range (max " + std::to_string(max) +
                           ")");
    }
  }
  *out = value;
  return Status::Ok();
}

/// Parses the whole graph file held in `text`. The buffer is released
/// before the CSR build so the two never peak together.
[[nodiscard]] Result<Graph> ParseGraph(std::string text,
                                       const std::string& source) {
  Scanner scanner(text, source);

  // Header: egocensus-graph 1 <directed> <num_nodes> <num_edges>
  if (!scanner.NextLine()) {
    return Status::ParseError(source + ": empty input (missing header)");
  }
  std::string_view magic;
  if (!scanner.NextToken(&magic)) return scanner.Error("missing magic");
  if (magic != "egocensus-graph") {
    return scanner.Error("bad magic '" + std::string(magic) +
                         "' (expected 'egocensus-graph')");
  }
  std::uint64_t version = 0, directed = 0, num_nodes = 0, num_edges = 0;
  if (Status s = ReadUint(scanner, {"format version"}, 0xFFFFFFFFull,
                          &version);
      !s.ok()) {
    return s;
  }
  if (version != 1) {
    return scanner.Error("unsupported format version " +
                         std::to_string(version));
  }
  if (Status s = ReadUint(scanner, {"directed flag"}, 1, &directed); !s.ok()) {
    return s;
  }
  if (Status s = ReadUint(scanner, {"node count"}, 0xFFFFFFFEull, &num_nodes);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadUint(scanner, {"edge count"}, 0xFFFFFFFEull, &num_edges);
      !s.ok()) {
    return s;
  }
  if (Status s = scanner.ExpectEndOfLine(); !s.ok()) return s;

  // Has-labels flag line.
  if (!scanner.NextLine()) {
    return Status::ParseError(source + ": missing has-labels line");
  }
  std::uint64_t has_labels = 0;
  if (Status s = ReadUint(scanner, {"has-labels flag"}, 1, &has_labels);
      !s.ok()) {
    return s;
  }
  if (Status s = scanner.ExpectEndOfLine(); !s.ok()) return s;

  Graph graph(directed != 0);
  // Every label takes at least two bytes and every edge line four ("u v\n"),
  // which bounds the reservations when the header's counts are bogus.
  graph.Reserve(static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    has_labels != 0 ? num_nodes : 0, text.size() / 2)),
                std::min<std::uint64_t>(num_edges, text.size() / 4));

  // Optional label line: num_nodes integers.
  if (has_labels != 0) {
    if (!scanner.NextLine()) {
      return Status::ParseError(source + ": missing label line");
    }
    for (std::uint64_t n = 0; n < num_nodes; ++n) {
      std::uint64_t label = 0;
      if (Status s = ReadUint(scanner, {"label for node", n}, 0xFFFFFFFFull,
                              &label);
          !s.ok()) {
        return s;
      }
      graph.AddNode(static_cast<Label>(label));
    }
    if (Status s = scanner.ExpectEndOfLine(); !s.ok()) return s;
  } else {
    graph.AddNodes(static_cast<std::uint32_t>(num_nodes));
  }

  // One "u v" line per edge.
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    if (!scanner.NextLine()) {
      return Status::ParseError(
          source + ": truncated edge list (expected " +
          std::to_string(num_edges) + " edges, got " + std::to_string(e) +
          ")");
    }
    std::uint64_t u = 0, v = 0;
    if (Status s = ReadUint(scanner, {"edge source"}, 0xFFFFFFFEull, &u);
        !s.ok()) {
      return s;
    }
    if (Status s = ReadUint(scanner, {"edge target"}, 0xFFFFFFFEull, &v);
        !s.ok()) {
      return s;
    }
    if (u >= num_nodes || v >= num_nodes) {
      return scanner.Error("edge endpoint out of range: " + std::to_string(u) +
                           " " + std::to_string(v) + " (graph has " +
                           std::to_string(num_nodes) + " nodes)");
    }
    if (Status s = scanner.ExpectEndOfLine(); !s.ok()) return s;
    if (graph.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v)) ==
        kInvalidEdge) {
      return scanner.Error("invalid edge " + std::to_string(u) + " " +
                           std::to_string(v));
    }
  }

  // Strict trailing-garbage detection: anything but blank lines after the
  // edge list is an error, not silently ignored.
  while (scanner.NextLine()) {
    std::string_view extra;
    if (scanner.NextToken(&extra)) {
      return scanner.Error("trailing content '" + std::string(extra) +
                           "' after edge list");
    }
  }

  text = std::string();
  if (Status s = graph.Finalize(); !s.ok()) return s;
  return graph;
}

}  // namespace

[[nodiscard]] Result<Graph> ReadGraph(std::istream& in, const std::string& source) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseGraph(std::move(buffer).str(), source);
}

[[nodiscard]] Result<Graph> LoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open: " + path);
  const std::streamoff size = in.tellg();
  std::string text;
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    if (!in.read(text.data(), size)) {
      return Status::Internal("read failed: " + path);
    }
  }
  return ParseGraph(std::move(text), path);
}

[[nodiscard]] Status WriteDot(const Graph& graph, std::ostream& out,
                std::uint32_t max_nodes) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  const std::uint32_t limit = std::min(max_nodes, graph.NumNodes());
  const bool labeled = graph.NumLabels() > 1;
  const char* edge_op = graph.directed() ? " -> " : " -- ";
  out << (graph.directed() ? "digraph" : "graph") << " g {\n";
  for (NodeId n = 0; n < limit; ++n) {
    out << "  n" << n;
    if (labeled) out << " [label=\"" << n << ":" << graph.label(n) << "\"]";
    out << ";\n";
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    auto [u, v] = graph.EdgeEndpoints(e);
    if (u >= limit || v >= limit) continue;
    out << "  n" << u << edge_op << "n" << v << ";\n";
  }
  out << "}\n";
  if (!out) return Status::Internal("DOT write failed");
  return Status::Ok();
}

}  // namespace egocensus
