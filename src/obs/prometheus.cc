#include "obs/prometheus.h"

#include <map>

namespace egocensus::obs {

namespace {

/// One sample of a family: its label block (without braces, may be empty)
/// plus either a scalar or a histogram.
struct ScalarSample {
  std::string labels;
  std::uint64_t value = 0;
};

struct HistogramSample {
  std::string labels;
  const HistogramSnapshot* histogram = nullptr;
};

/// Splits a registry name into base + label block. Labels were attached by
/// LabeledName, so the block (when present) is already escaped `k="v"` text.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

/// Legal exposition metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, under the
/// project prefix. Registry separators ('/', '-', spaces from skip-reason
/// counters) all collapse to '_'.
std::string SanitizeBase(const std::string& base) {
  std::string out = "egocensus_";
  for (char c : base) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string WithLabels(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

std::string WithLabelsAndLe(const std::string& name, const std::string& labels,
                            const std::string& le) {
  std::string block = labels.empty() ? "" : labels + ",";
  return name + "{" + block + "le=\"" + le + "\"}";
}

void WriteScalarFamilies(
    const std::map<std::string, std::uint64_t>& metrics, const char* type,
    const char* help, bool total_suffix, std::ostream& os) {
  // Group samples by sanitized base so each family gets one HELP/TYPE pair
  // with all of its labeled samples together, as the format requires.
  std::map<std::string, std::vector<ScalarSample>> families;
  for (const auto& [name, value] : metrics) {
    std::string base, labels;
    SplitName(name, &base, &labels);
    std::string family = SanitizeBase(base);
    if (total_suffix) family += "_total";
    families[family].push_back(ScalarSample{labels, value});
  }
  for (const auto& [family, samples] : families) {
    os << "# HELP " << family << " " << help << "\n";
    os << "# TYPE " << family << " " << type << "\n";
    for (const ScalarSample& sample : samples) {
      os << WithLabels(family, sample.labels) << " " << sample.value << "\n";
    }
  }
}

void WriteHistogramFamilies(
    const std::map<std::string, HistogramSnapshot>& metrics,
    std::ostream& os) {
  std::map<std::string, std::vector<HistogramSample>> families;
  for (const auto& [name, histogram] : metrics) {
    std::string base, labels;
    SplitName(name, &base, &labels);
    families[SanitizeBase(base)].push_back(
        HistogramSample{labels, &histogram});
  }
  for (const auto& [family, samples] : families) {
    os << "# HELP " << family
       << " egocensus log2-bucketed histogram (obs/metrics.h)\n";
    os << "# TYPE " << family << " histogram\n";
    for (const HistogramSample& sample : samples) {
      const HistogramSnapshot& h = *sample.histogram;
      // Cumulative buckets up to the last populated one; +Inf carries the
      // total. Bucket b >= 1 counts values in [2^(b-1), 2^b), so its
      // inclusive exposition bound is 2^b - 1; bucket 0 counts exactly 0.
      std::size_t last = 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (h.buckets[b] != 0) last = b;
      }
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b <= last; ++b) {
        cumulative += h.buckets[b];
        std::uint64_t le = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
        os << WithLabelsAndLe(family + "_bucket", sample.labels,
                              std::to_string(le))
           << " " << cumulative << "\n";
      }
      os << WithLabelsAndLe(family + "_bucket", sample.labels, "+Inf") << " "
         << h.count << "\n";
      os << WithLabels(family + "_sum", sample.labels) << " " << h.sum
         << "\n";
      os << WithLabels(family + "_count", sample.labels) << " " << h.count
         << "\n";
    }
  }
}

/// Escapes one label value for the exposition format (backslash, double
/// quote, newline).
std::string PromEscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string LabeledName(
    std::string_view base,
    const std::vector<std::pair<std::string_view, std::string_view>>&
        labels) {
  std::string out(base);
  if (labels.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += std::string(key) + "=\"" + PromEscapeLabelValue(value) + "\"";
  }
  out += '}';
  return out;
}

void WritePrometheus(const MetricsSnapshot& snapshot, std::ostream& os) {
  WriteScalarFamilies(snapshot.counters, "counter",
                      "egocensus counter (obs/metrics.h)",
                      /*total_suffix=*/true, os);
  WriteScalarFamilies(snapshot.gauges, "gauge",
                      "egocensus max-gauge (obs/metrics.h)",
                      /*total_suffix=*/false, os);
  WriteHistogramFamilies(snapshot.histograms, os);
}

}  // namespace egocensus::obs
