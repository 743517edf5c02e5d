#ifndef PERFBENCH_HARNESS_RUN_H_
#define PERFBENCH_HARNESS_RUN_H_

// The two workloads (README.md has the rationale for each). A run fills
// a Report: end-to-end metrics always, per-layer metrics when traced.

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 25;  // length of the measured window
  bool trace = false;
  std::string work_dir;  // graph files, CLI outputs
  std::string cli_path;  // the `ecensus` binary
};

void RunDaemonRead(const RunOptions& options, Report* report);
void RunCliBatch(const RunOptions& options, Report* report);

/// Peak resident set of this process (self) or of its waited-for children.
double PeakRssMb(bool children);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_RUN_H_
