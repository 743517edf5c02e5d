// perfbench: the repository benchmark program.
//
//   perfbench --workload daemon-read|cli-batch --seed N
//             --seconds S --trace 0|1 --cli PATH --work DIR
//
// Prints a table of metrics and, as its last stdout line, one JSON result
// object. Exits 1 (and prints no result) when the run cannot produce every
// metric. perfbench/run.py builds this binary and passes --cli and --work.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness/report.h"
#include "harness/run.h"

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "cli",
                               "work"}) {
    if (args.find(required) == args.end()) {
      std::cerr << "perfbench: --" << required << " is required\n";
      return 2;
    }
  }
  perfbench::RunOptions options;
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  options.cli_path = args["cli"];
  options.work_dir = args["work"];
  if (options.seconds <= 0) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }

  perfbench::Report report;
  const std::string& workload = args["workload"];
  std::cout << "# perfbench " << workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << std::endl;
  if (workload == "daemon-read") {
    perfbench::RunDaemonRead(options, &report);
  } else if (workload == "cli-batch") {
    perfbench::RunCliBatch(options, &report);
  } else {
    std::cerr << "perfbench: unknown workload " << workload << "\n";
    return 2;
  }
  return report.Emit(options.trace);
}
