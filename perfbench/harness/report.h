#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

// What one benchmark run prints: a human-readable table (every metric with
// its unit and sample count; per-layer metrics also with the end-to-end
// metric they feed and their share of it), then, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// An end-to-end metric (printed with --trace 0).
  void EndToEnd(const std::string& name, std::optional<double> value,
                const std::string& unit, std::size_t samples);

  /// A per-layer metric (printed with --trace 1). `feeds` names the
  /// end-to-end metric it should move; when the value is a time and the
  /// traced run measured `feeds` (Blocking), its share is printed too.
  void Layer(const std::string& name, std::optional<double> value,
             const std::string& unit, std::size_t samples,
             const std::string& feeds = "");

  /// The end-to-end value (in ms or s, as the metric's unit) measured in
  /// the traced run, the base of the per-layer shares.
  void Blocking(const std::string& name, std::optional<double> value,
                const std::string& unit);

  /// One operation of the measured workload; `ok` false counts it failed.
  void Operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// A check that failed outside the counted operations (final graph
  /// state, reference computation): the run is not correct.
  void CheckFailed(const std::string& what);

  /// Free-form line in the human part (context, counters, check results).
  void Note(const std::string& line);

  /// A metric the run could not support (too few samples) or an error:
  /// the run prints no result and exits non-zero.
  void Error(const std::string& what);
  bool has_error() const { return !errors_.empty(); }

  /// Prints the human part and the result line; returns the exit code.
  int Emit(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
    std::string feeds;
  };
  void Add(std::vector<Entry>* into, const std::string& name,
           std::optional<double> value, const std::string& unit,
           std::size_t samples, const std::string& feeds);

  std::vector<Entry> end_to_end_;
  std::vector<Entry> layers_;
  std::map<std::string, std::pair<double, std::string>> blocking_;
  std::vector<std::string> notes_;
  std::vector<std::string> check_failures_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
