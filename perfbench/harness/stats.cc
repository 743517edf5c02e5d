#include "harness/stats.h"

#include <algorithm>

namespace perfbench {
namespace {

/// 1-based nearest rank ceil(permille * n / 1000), in integers so that a
/// p95 of 200 samples is rank 190 exactly.
std::size_t NearestRank(std::size_t n, std::uint32_t permille) {
  return (static_cast<std::size_t>(permille) * n + 999) / 1000;
}

}  // namespace

bool PercentileSupported(std::size_t n, std::uint32_t permille) {
  if (n == 0 || permille == 0 || permille >= 1000) return false;
  std::size_t rank = NearestRank(n, permille);
  return rank >= 1 && n - rank >= kMinBeyond;
}

std::optional<double> Percentile(std::vector<double> samples,
                                 std::uint32_t permille) {
  if (!PercentileSupported(samples.size(), permille)) return std::nullopt;
  std::size_t index = NearestRank(samples.size(), permille) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::optional<double> Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nullopt;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
