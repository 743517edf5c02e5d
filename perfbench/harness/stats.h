#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Order statistics for the benchmark's reported numbers. A percentile is
// reported only when the sample supports it: at least kMinBeyond samples
// must lie beyond it (so a p95 needs 200 samples, a median 20). Callers get
// std::nullopt otherwise and must not print a number.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// True when `n` samples leave at least kMinBeyond samples above the
/// nearest-rank percentile `permille` (500 = median, 950 = p95).
bool PercentileSupported(std::size_t n, std::uint32_t permille);

/// Nearest-rank percentile (the ceil(p*n)-th smallest sample), or nullopt
/// when PercentileSupported(samples.size(), permille) is false.
std::optional<double> Percentile(std::vector<double> samples,
                                 std::uint32_t permille);

/// Arithmetic mean; nullopt for an empty sample.
std::optional<double> Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
