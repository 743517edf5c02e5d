// cli-batch: one `ecensus query --threads 2 --csv` child process per
// request over a graph file, as a user runs the CLI: the same query
// classes daemon-read sends, each invocation paying process start, graph
// load, index build and option parsing.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>

#include "graph/io.h"
#include "harness/check.h"
#include "harness/layers.h"
#include "harness/run.h"
#include "harness/stats.h"
#include "harness/workload.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kSetupQuery = "SELECT ID FROM nodes WHERE ID < 1";
// setup_s repetitions: the first kSetupReps / 2 + 1 before the measured
// window, the rest after it, so the median spans the run.
constexpr int kSetupReps = 31;

struct Invocation {
  bool exited_ok = false;  // exit status 0
  double wall_s = 0;
};

/// Runs the CLI with `args`, stdout to `out_path`, stderr to `err_path`,
/// and waits for it.
Invocation RunCli(const std::string& cli, const std::vector<std::string>& args,
                  const std::string& out_path, const std::string& err_path) {
  std::vector<std::string> argv_storage = {cli};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  Invocation result;
  Clock::time_point start = Clock::now();
  pid_t pid = 0;
  int spawned = posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv.data(),
                            environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return result;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return result;
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// True when the CLI's stderr census stats report focal nodes still
/// pending (the focal-state mismatch counter; counted, never failed).
bool FocalPending(const std::string& stderr_text) {
  std::istringstream in(stderr_text);
  std::string line;
  std::size_t column = std::string::npos;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      fields.push_back(cell);
    }
    if (column == std::string::npos) {
      auto it = std::find(fields.begin(), fields.end(), "focal_pending");
      if (it != fields.end()) column = it - fields.begin();
    } else if (column < fields.size() && fields[column] != "0") {
      return true;
    }
  }
  return false;
}

/// Invocations of one phase.
struct CliPhase {
  std::vector<Timed> completed;  // checked invocations, wall time in ms
  std::vector<std::vector<double>> by_class;  // the same, ms per class
  std::size_t invocations = 0;
  std::size_t focal_pending = 0;  // invocations reporting focal_pending > 0
  double elapsed_s = 0;
};

class CliBatch {
 public:
  CliBatch(const RunOptions& options, Report* report)
      : options_(options), report_(report) {
    graph_path_ = options.work_dir + "/cli.graph";
    out_path_ = options.work_dir + "/cli_out.csv";
    err_path_ = options.work_dir + "/cli_err.txt";
    trace_path_ = options.work_dir + "/cli_trace.json";
  }

  void Run() {
    {
      Graph generated = MakeGraph(CliGraphSpec());
      egocensus::Status saved = egocensus::SaveGraph(generated, graph_path_);
      if (!saved.ok()) {
        report_->Error("save cli graph: " + saved.ToString());
        return;
      }
    }
    if (!MeasureSetup(kSetupReps / 2 + 1)) return;
    auto graph = egocensus::LoadGraph(graph_path_);
    if (!graph.ok()) {
      report_->Error("load cli graph: " + graph.status().ToString());
      return;
    }
    graph_ = std::move(*graph);
    egocensus::GraphIndexes indexes = egocensus::GraphIndexes::Build(graph_);
    const std::vector<QueryClass>& classes = ReadClasses();
    references_.resize(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      auto counts = ReferenceCounts(graph_, &indexes, classes[c], 2);
      if (!counts.ok()) {
        report_->CheckFailed("reference " + classes[c].name + ": " +
                             counts.status().ToString());
        return;
      }
      references_[c] = std::move(*counts);
      report_->Note("reference " + classes[c].name + " hash " +
                    std::to_string(HashCounts(references_[c])));
    }

    // Longer than any run can complete: 400 blocks = 8000 invocations.
    sequence_ = BuildReadSequence(options_.seed, 400, Entry::kCli);
    WarmUp();

    if (!options_.trace) {
      CliPhase phase = RunPhase(options_.seconds, false);
      if (!MeasureSetup(kSetupReps - kSetupReps / 2 - 1)) return;
      report_->EndToEnd("setup_s", Percentile(setup_s_, 500), "s",
                        setup_s_.size());
      ReportQueries(phase);
      report_->EndToEnd("peak_rss_mb", PeakRssMb(true), "MB",
                        phase.invocations + kSetupReps + classes.size());
      return;
    }

    // ---- traced run: per-layer split ----
    CliPhase untraced = RunPhase(options_.seconds / 2, false);
    CliPhase traced = RunPhase(options_.seconds, true);
    if (!MeasureSetup(kSetupReps - kSetupReps / 2 - 1)) return;
    report_->Blocking("setup_s", Percentile(setup_s_, 500), "s");
    std::vector<double> all;
    for (const Timed& t : traced.completed) all.push_back(t.ms);
    report_->Blocking("query_p50_ms", Percentile(all, 500), "ms");
    for (std::size_t c = 0; c < classes.size(); ++c) {
      report_->Blocking(classes[c].name + "_ms",
                        Percentile(traced.by_class[c], 500), "ms");
    }
    MeasureSharedLayers({graph_, indexes, graph_path_, sequence_,
                         options_.seed, 2},
                        "", report_);
    report_->Layer("obs.trace_overhead_pct",
                   TraceOverheadPct(untraced.completed, traced.completed),
                   "%", traced.completed.size());
    report_->Layer(
        "check.focal_state_mismatch",
        static_cast<double>(untraced.focal_pending + traced.focal_pending),
        "count", untraced.invocations + traced.invocations);
  }

 private:
  /// setup_s samples: `reps` invocations loading the graph file and serving
  /// a trivial query. False (after Report::Error) when one fails.
  bool MeasureSetup(int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      Invocation inv = RunCli(options_.cli_path,
                              {"query", "--graph", graph_path_, "--query",
                               kSetupQuery, "--csv"},
                              out_path_, err_path_);
      if (!inv.exited_ok) {
        report_->Error("cli setup invocation failed: " + ReadFile(err_path_));
        return false;
      }
      setup_s_.push_back(inv.wall_s);
    }
    return true;
  }

  /// One invocation of each class before the window, checked, not timed.
  void WarmUp() {
    std::vector<bool> seen(ReadClasses().size(), false);
    for (std::size_t i = 0; i < sequence_.size(); ++i) {
      if (seen[sequence_[i].cls]) continue;
      seen[sequence_[i].cls] = true;
      Invoke(i, false, nullptr);
    }
  }

  /// One checked invocation of sequence position `i`; returns its wall
  /// time in ms, or a negative value when it failed.
  double Invoke(std::size_t i, bool traced, bool* focal_pending) {
    const ReadRequest& request = sequence_[i];
    const QueryClass& cls = ReadClasses()[request.cls];
    std::vector<std::string> args = {"query",     "--graph", graph_path_,
                                     "--query",   cls.Text(), "--seed",
                                     std::to_string(request.rnd_seed),
                                     "--threads", "2",        "--csv"};
    if (traced) {
      args.push_back("--trace");
      args.push_back(trace_path_);
    }
    Invocation inv = RunCli(options_.cli_path, args, out_path_, err_path_);
    bool ok = inv.exited_ok;
    if (ok) {
      auto focal = FocalSample(graph_, cls, request.rnd_seed);
      ok = focal.ok() && AnswerMatches(ReadFile(out_path_), *focal,
                                       references_[request.cls]);
      if (focal_pending != nullptr) {
        *focal_pending = FocalPending(ReadFile(err_path_));
      }
    }
    report_->Operation(ok);
    return ok ? inv.wall_s * 1e3 : -1;
  }

  /// Invocations from the start of the sequence for `seconds`.
  CliPhase RunPhase(double seconds, bool traced) {
    CliPhase phase;
    phase.by_class.resize(ReadClasses().size());
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; i < sequence_.size() && Clock::now() < stop; ++i) {
      bool pending = false;
      double ms = Invoke(i, traced, &pending);
      ++phase.invocations;
      phase.focal_pending += pending ? 1 : 0;
      // A failed invocation is counted failed; its time is not a sample.
      if (ms < 0) continue;
      phase.completed.push_back({i, ms});
      phase.by_class[sequence_[i].cls].push_back(ms);
    }
    phase.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return phase;
  }

  /// The end-to-end query metrics of the measured phase.
  void ReportQueries(const CliPhase& phase) {
    std::vector<double> all;
    for (const Timed& t : phase.completed) all.push_back(t.ms);
    report_->EndToEnd("query_p50_ms", Percentile(all, 500), "ms", all.size());
    report_->EndToEnd("query_p95_ms", Percentile(all, 950), "ms", all.size());
    report_->EndToEnd("query_qps",
                      static_cast<double>(all.size()) / phase.elapsed_s, "1/s",
                      all.size());
    const std::vector<QueryClass>& classes = ReadClasses();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      report_->EndToEnd(classes[c].name + "_ms",
                        Percentile(phase.by_class[c], 500), "ms",
                        phase.by_class[c].size());
    }
    report_->Note("check.focal_state_mismatch " +
                  std::to_string(phase.focal_pending) +
                  " (invocations reporting focal_pending > 0)");
  }

  const RunOptions& options_;
  Report* report_;
  std::string graph_path_, out_path_, err_path_, trace_path_;
  Graph graph_;
  std::vector<Counts> references_;
  std::vector<ReadRequest> sequence_;
  std::vector<double> setup_s_;
};

}  // namespace

void RunCliBatch(const RunOptions& options, Report* report) {
  CliBatch batch(options, report);
  batch.Run();
}

}  // namespace perfbench
