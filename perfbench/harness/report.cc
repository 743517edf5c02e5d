#include "harness/report.h"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {
namespace {

std::string Number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// A value in ms, for units the shares understand; nullopt otherwise.
std::optional<double> ToMillis(double value, const std::string& unit) {
  if (unit == "ms") return value;
  if (unit == "us") return value / 1000.0;
  if (unit == "s") return value * 1000.0;
  return std::nullopt;
}

}  // namespace

void Report::Add(std::vector<Entry>* into, const std::string& name,
                 std::optional<double> value, const std::string& unit,
                 std::size_t samples, const std::string& feeds) {
  if (!value.has_value()) {
    Error(name + ": " + std::to_string(samples) +
          " samples do not support this statistic");
    return;
  }
  if (!std::isfinite(*value)) {
    Error(name + ": not a finite number");
    return;
  }
  if (samples == 0) {
    Error(name + ": no samples");
    return;
  }
  into->push_back({name, *value, unit, samples, feeds});
}

void Report::EndToEnd(const std::string& name, std::optional<double> value,
                      const std::string& unit, std::size_t samples) {
  Add(&end_to_end_, name, value, unit, samples, "");
}

void Report::Layer(const std::string& name, std::optional<double> value,
                   const std::string& unit, std::size_t samples,
                   const std::string& feeds) {
  Add(&layers_, name, value, unit, samples, feeds);
}

void Report::Blocking(const std::string& name, std::optional<double> value,
                      const std::string& unit) {
  if (value.has_value()) blocking_[name] = {*value, unit};
}

void Report::CheckFailed(const std::string& what) {
  check_failures_.push_back(what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Error(const std::string& what) { errors_.push_back(what); }

int Report::Emit(bool trace) const {
  for (const std::string& note : notes_) std::cout << "# " << note << "\n";
  for (const std::string& what : check_failures_) {
    std::cout << "# CHECK FAILED: " << what << "\n";
  }
  if (!errors_.empty()) {
    for (const std::string& what : errors_) {
      std::cerr << "perfbench: " << what << "\n";
    }
    return 1;
  }
  const std::vector<Entry>& metrics = trace ? layers_ : end_to_end_;
  std::printf("%-34s %16s %-6s %8s  %s\n", "metric", "value", "unit",
              "samples", trace ? "feeds (share of its traced value)" : "");
  for (const Entry& e : metrics) {
    std::string feeds;
    if (!e.feeds.empty()) {
      feeds = e.feeds;
      auto base = blocking_.find(e.feeds);
      std::optional<double> part = ToMillis(e.value, e.unit);
      if (base != blocking_.end() && part.has_value()) {
        std::optional<double> whole =
            ToMillis(base->second.first, base->second.second);
        if (whole.has_value() && *whole > 0) {
          char share[32];
          std::snprintf(share, sizeof(share), " (%.2f%%)",
                        100.0 * *part / *whole);
          feeds += share;
        }
      }
    }
    std::printf("%-34s %16.6f %-6s %8zu  %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.samples, feeds.c_str());
  }
  std::printf("# operations attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool correct = failed_ == 0 && check_failures_.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace perfbench
