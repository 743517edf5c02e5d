// daemon-read: an in-process net::CensusServer driven over TCP by
// net::Client connections, as `ecensus remote` drives ecensusd.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "graph/io.h"
#include "harness/check.h"
#include "harness/layers.h"
#include "harness/run.h"
#include "harness/stats.h"
#include "harness/workload.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "util/mutex.h"

namespace perfbench {

namespace net = egocensus::net;
using Clock = std::chrono::steady_clock;

double PeakRssMb(bool children) {
  struct rusage usage {};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

constexpr const char* kGraph = "g";
constexpr const char* kFirstQuery = "SELECT ID FROM nodes WHERE ID < 1";
// setup_s repetitions: the first kSetupReps / 2 + 1 before the measured
// window, the rest after it, so the median spans the run as the other
// metrics do instead of the machine's speed in its first seconds.
constexpr int kSetupReps = 31;
constexpr int kServerSlots = 2;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

bool ResultOk(const egocensus::Result<net::Message>& reply) {
  return reply.ok() && reply->type == net::FrameType::kResult &&
         reply->Header("exec_status", "") == "OK";
}

/// The resident daemon of one run: graph file written, server started,
/// setup measured, graph `g` loaded.
class Daemon {
 public:
  Daemon(const RunOptions& options, Report* report) : report_(report) {
    path_ = options.work_dir + "/daemon.graph";
    {
      Graph generated = MakeGraph(DaemonGraphSpec());
      egocensus::Status saved = egocensus::SaveGraph(generated, path_);
      if (!saved.ok()) {
        report->Error("save daemon graph: " + saved.ToString());
        return;
      }
    }
    net::CensusServer::Options server_options;
    server_options.listen.host = "127.0.0.1";
    server_options.listen.port = 0;
    server_options.max_inflight = kServerSlots;
    server_options.ring_capacity = 1024;
    server_ = std::make_unique<net::CensusServer>(server_options);
    egocensus::Status started = server_->Start();
    if (!started.ok()) {
      report->Error("start daemon: " + started.ToString());
      server_.reset();
      return;
    }
    endpoint_.host = "127.0.0.1";
    endpoint_.port = server_->port();
    MeasureSetup(kSetupReps / 2 + 1);
  }

  ~Daemon() {
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const { return server_ != nullptr && !report_->has_error(); }
  const net::Endpoint& endpoint() const { return endpoint_; }
  net::CensusServer& server() { return *server_; }
  const std::string& path() const { return path_; }
  std::uint64_t base_version() const { return base_version_; }

  /// setup_s: LOAD of the graph file until the first QUERY is answered,
  /// the remaining kSetupReps - kSetupReps / 2 - 1 times, each after an
  /// UNLOAD; the graph stays loaded.
  void FinishSetup() { MeasureSetup(kSetupReps - kSetupReps / 2 - 1); }
  void ReportSetup() {
    report_->EndToEnd("setup_s", setup_median_s(), "s", setup_s_.size());
  }
  std::optional<double> setup_median_s() const {
    return Percentile(setup_s_, 500);
  }

 private:
  void MeasureSetup(int reps) {
    auto client = net::Client::Connect(endpoint_);
    if (!client.ok()) {
      report_->Error("connect: " + client.status().ToString());
      return;
    }
    for (int rep = 0; rep < reps; ++rep) {
      if (!setup_s_.empty()) {
        auto unloaded = client->Call(net::Client::UnloadRequest(kGraph));
        if (!unloaded.ok() || unloaded->type != net::FrameType::kResult) {
          report_->Error("setup: UNLOAD failed");
          return;
        }
      }
      Clock::time_point begin = Clock::now();
      auto loaded = client->Call(net::Client::LoadRequest(kGraph, path_));
      auto first = client->Call(net::Client::QueryRequest(kGraph, kFirstQuery));
      setup_s_.push_back(Seconds(Clock::now() - begin));
      if (!loaded.ok() || loaded->type != net::FrameType::kResult ||
          !ResultOk(first)) {
        report_->Error("setup: LOAD or first QUERY failed");
        return;
      }
      base_version_ = first->HeaderInt("graph_version", 0);
    }
  }

  Report* report_;
  std::string path_;
  std::unique_ptr<net::CensusServer> server_;
  net::Endpoint endpoint_;
  std::vector<double> setup_s_;
  std::uint64_t base_version_ = 0;
};

/// The program's answer to one request, as the client saw it.
struct Reply {
  std::size_t index = 0;    // position in the request sequence
  double latency_ms = 0;    // round trip
  egocensus::Result<net::Message> message = egocensus::Status::Internal("unset");
};

/// Resident copy of a graph for references and in-process layers.
struct Resident {
  Graph graph;
  egocensus::GraphIndexes indexes;
};

std::unique_ptr<Resident> LoadResident(const std::string& path,
                                       Report* report) {
  auto graph = egocensus::LoadGraph(path);
  if (!graph.ok()) {
    report->Error("load " + path + ": " + graph.status().ToString());
    return nullptr;
  }
  auto resident = std::make_unique<Resident>();
  resident->graph = std::move(*graph);
  resident->indexes = egocensus::GraphIndexes::Build(resident->graph);
  return resident;
}

/// OK replies reporting focal nodes still pending (the focal-state
/// mismatch counter; counted, never failed).
std::size_t FocalStateMismatches(const std::vector<Reply>& replies) {
  std::size_t mismatches = 0;
  for (const Reply& r : replies) {
    if (ResultOk(r.message) && r.message->HeaderInt("focal_pending", 0) > 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------- read

net::Message ReadMessage(const ReadRequest& request) {
  net::Message message = net::Client::QueryRequest(
      kGraph, ReadClasses()[request.cls].Text());
  message.headers["seed"] = std::to_string(request.rnd_seed);
  return message;
}

/// Two closed-loop clients replaying `sequence` from its start for
/// `seconds`, or until `cancel` is set; returns the replies and the
/// elapsed time.
std::vector<Reply> RunReadPhase(const net::Endpoint& endpoint,
                                const std::vector<ReadRequest>& sequence,
                                double seconds, double* elapsed_s,
                                const std::atomic<bool>* cancel = nullptr) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<Reply> replies;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = At(start, seconds);
  auto client_loop = [&] {
    auto client = net::Client::Connect(endpoint);
    while (Clock::now() < stop && (cancel == nullptr || !cancel->load())) {
      std::size_t i = next.fetch_add(1);
      if (i >= sequence.size()) break;
      Reply reply;
      reply.index = i;
      net::Message request = ReadMessage(sequence[i]);
      Clock::time_point sent = Clock::now();
      if (client.ok()) {
        reply.message = client->Call(request);
      } else {
        reply.message = client.status();
      }
      reply.latency_ms = Seconds(Clock::now() - sent) * 1e3;
      std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(reply));
    }
  };
  std::thread a(client_loop);
  std::thread b(client_loop);
  a.join();
  b.join();
  *elapsed_s = Seconds(Clock::now() - start);
  std::sort(replies.begin(), replies.end(),
            [](const Reply& x, const Reply& y) { return x.index < y.index; });
  return replies;
}

/// True when the OK reply `r` to `request` holds exactly the request's
/// RND() focal sample with the reference counts.
bool CountsMatch(const Reply& r, const ReadRequest& request,
                 const Resident& resident,
                 const std::vector<Counts>& references) {
  auto focal = FocalSample(resident.graph, ReadClasses()[request.cls],
                           request.rnd_seed);
  return focal.ok() &&
         AnswerMatches(r.message->body, *focal, references[request.cls]);
}

/// Checks every reply against the references; counts operations.
void CheckReadReplies(const std::vector<Reply>& replies,
                      const std::vector<ReadRequest>& sequence,
                      const Resident& resident,
                      const std::vector<Counts>& references, Report* report) {
  if (replies.empty()) return;
  std::size_t wrong = 0;
  std::vector<std::size_t> routed(ReadClasses().size(), 0);
  std::vector<std::size_t> served(ReadClasses().size(), 0);
  for (const Reply& r : replies) {
    const ReadRequest& request = sequence[r.index];
    bool ok = ResultOk(r.message);
    if (ok) {
      ++served[request.cls];
      if (r.message->HeaderInt("fastpath_routed", 0) > 0) ++routed[request.cls];
      ok = CountsMatch(r, request, resident, references);
      if (!ok) ++wrong;
    }
    report->Operation(ok);
  }
  report->Note("daemon-read: " + std::to_string(replies.size()) +
               " replies checked, " + std::to_string(wrong) +
               " count mismatches");
  std::string routing = "fastpath_routed:";
  for (std::size_t c = 0; c < served.size(); ++c) {
    routing += " " + ReadClasses()[c].name + " " + std::to_string(routed[c]) +
               "/" + std::to_string(served[c]);
  }
  report->Note(routing);
}

std::vector<Counts> References(const Resident& resident,
                               const std::vector<QueryClass>& classes,
                               Report* report) {
  std::vector<Counts> references(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    auto counts = ReferenceCounts(resident.graph, &resident.indexes,
                                  classes[c], kServerSlots);
    if (!counts.ok()) {
      report->CheckFailed("reference " + classes[c].name + ": " +
                          counts.status().ToString());
      continue;
    }
    references[c] = std::move(*counts);
    report->Note("reference " + classes[c].name + " hash " +
                 std::to_string(HashCounts(references[c])));
  }
  return references;
}

struct ClassLatencies {
  std::vector<std::vector<double>> by_class;
  std::vector<double> all;
};

ClassLatencies SplitByClass(const std::vector<Reply>& replies,
                            const std::vector<ReadRequest>& sequence) {
  ClassLatencies out;
  out.by_class.resize(ReadClasses().size());
  for (const Reply& r : replies) {
    out.by_class[sequence[r.index].cls].push_back(r.latency_ms);
    out.all.push_back(r.latency_ms);
  }
  return out;
}

/// Sequence position and round trip of every reply.
std::vector<Timed> Timings(const std::vector<Reply>& replies) {
  std::vector<Timed> out;
  for (const Reply& r : replies) out.push_back({r.index, r.latency_ms});
  return out;
}

/// Untimed requests before the window: first-use costs are not measured.
void WarmUp(const net::Endpoint& endpoint,
            const std::vector<net::Message>& requests) {
  auto client = net::Client::Connect(endpoint);
  if (!client.ok()) return;
  for (const net::Message& request : requests) {
    auto reply = client->Call(request);
    (void)reply;
  }
}

/// One request of each class, in sequence order.
std::vector<net::Message> FirstOfEachClass(
    const std::vector<ReadRequest>& sequence) {
  std::vector<net::Message> out;
  std::set<std::size_t> seen;
  for (const ReadRequest& request : sequence) {
    if (seen.insert(request.cls).second) out.push_back(ReadMessage(request));
    if (out.size() == ReadClasses().size()) break;
  }
  return out;
}

/// The resident graph equals `base` again once the write probes ended.
bool GraphIsBase(net::CensusServer& server, const Graph& base) {
  auto entry = server.registry().Get(kGraph);
  if (!entry.ok()) return false;
  net::GraphEntry& graph = **entry;
  egocensus::SharedMutexLock lock(graph.mutex);
  const Graph& snapshot = graph.snapshot;
  if (snapshot.NumNodes() != base.NumNodes() ||
      snapshot.NumEdges() != base.NumEdges()) {
    return false;
  }
  for (NodeId n = 0; n < base.NumNodes(); ++n) {
    auto a = snapshot.Neighbors(n);
    auto b = base.Neighbors(n);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

struct UpdateProbeResult {
  std::vector<double> update_ms;  // each applied single-edge UPDATE
  std::vector<Reply> reads;       // the readers' replies, by sequence index
  std::set<std::uint64_t> base_versions;  // graph_version after each delete
};

/// UPDATE probe: a closed-loop single-edge writer, alone (`readers` empty)
/// or beside 2 closed-loop readers replaying `readers` (the writer-starvation
/// probe), until `want` UPDATEs or `limit_s` pass, ending on a delete so the
/// graph is back to the base. Every UPDATE is an operation: an OK RESULT
/// with applied=1 and noop=0, else failed (and the probe stops).
UpdateProbeResult UpdateProbe(const net::Endpoint& endpoint,
                              const std::vector<ReadRequest>& readers,
                              const std::vector<Write>& singles,
                              std::size_t want, double limit_s,
                              Report* report) {
  UpdateProbeResult result;
  std::atomic<bool> stop{false};
  std::thread reader_thread;
  if (!readers.empty()) {
    reader_thread = std::thread([&] {
      double elapsed_s = 0;
      result.reads = RunReadPhase(endpoint, readers, 2 * limit_s + 60,
                                  &elapsed_s, &stop);
    });
  }
  auto client = net::Client::Connect(endpoint);
  if (!client.ok()) report->Operation(false);
  const Clock::time_point stop_at = At(Clock::now(), limit_s);
  for (std::size_t i = 0; client.ok() && i < singles.size(); ++i) {
    // Finish on a delete so the graph ends where it started.
    if (Clock::now() >= stop_at && singles[i].insert) break;
    if (result.update_ms.size() >= want && singles[i].insert) break;
    Clock::time_point sent = Clock::now();
    auto reply = client->Call(
        net::Client::UpdateRequest(kGraph, UpdateText(singles[i])));
    const double ms = Seconds(Clock::now() - sent) * 1e3;
    bool ok = ResultOk(reply) && reply->HeaderInt("applied", 0) == 1 &&
              reply->HeaderInt("noop", 1) == 0;
    report->Operation(ok);
    if (!ok) break;  // the final GraphIsBase check then fails too
    result.update_ms.push_back(ms);
    if (singles[i].RestoresBase()) {
      result.base_versions.insert(reply->HeaderInt("graph_version", 0));
    }
  }
  stop.store(true);
  if (reader_thread.joinable()) reader_thread.join();
  return result;
}

/// Checks the starvation probe's reader replies: each must be an OK
/// RESULT, and those answered at a base `graph_version` must also hold the
/// reference counts (the others saw an inserted edge).
void CheckProbeReads(const std::vector<Reply>& replies,
                     const std::vector<ReadRequest>& readers,
                     const std::set<std::uint64_t>& base_versions,
                     const Resident& resident,
                     const std::vector<Counts>& references, Report* report) {
  std::size_t checked = 0, wrong = 0;
  for (const Reply& r : replies) {
    bool ok = ResultOk(r.message);
    if (ok && base_versions.count(r.message->HeaderInt("graph_version", 0))) {
      ++checked;
      ok = CountsMatch(r, readers[r.index], resident, references);
      if (!ok) ++wrong;
    }
    report->Operation(ok);
  }
  report->Note("starvation probe: " + std::to_string(replies.size()) +
               " reader replies, " + std::to_string(checked) +
               " at a base graph_version checked, " + std::to_string(wrong) +
               " count mismatches");
}

/// Samples the STATUS `recent` ring (CensusServer::RecentRequests) while it
/// lives: the queue wait (admission plus graph-lock wait) of every QUERY.
class QueueSampler {
 public:
  explicit QueueSampler(net::CensusServer& server)
      : server_(server), thread_([this] {
          while (running_.load()) {
            Sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }) {}
  ~QueueSampler() { Stop(); }

  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  /// Stops sampling and returns every QUERY's queue wait in microseconds.
  std::vector<double> Stop() {
    if (thread_.joinable()) {
      running_.store(false);
      thread_.join();
      Sample();
    }
    std::vector<double> waits;
    for (const auto& [id, us] : queue_us_) {
      waits.push_back(static_cast<double>(us));
    }
    return waits;
  }

 private:
  void Sample() {
    for (const auto& record : server_.RecentRequests()) {
      if (record.type == "QUERY") queue_us_[record.request_id] = record.queue_us;
    }
  }

  net::CensusServer& server_;
  std::map<std::string, std::uint64_t> queue_us_;  // request id -> wait
  std::atomic<bool> running_{true};
  std::thread thread_;  // last: starts after the members it reads
};

/// Single-edge writes of `stream`, in insert/delete pairs.
std::vector<Write> Singles(const std::vector<Write>& stream) {
  std::vector<Write> singles;
  for (const Write& w : stream) {
    if (w.single()) singles.push_back(w);
  }
  return singles;
}

/// The tri1 requests of `sequence`: the starvation probe's short reads.
std::vector<ReadRequest> Tri1Requests(const std::vector<ReadRequest>& sequence) {
  std::vector<ReadRequest> out;
  for (const ReadRequest& request : sequence) {
    if (request.cls == 0) out.push_back(request);
  }
  return out;
}

}  // namespace

void RunDaemonRead(const RunOptions& options, Report* report) {
  Daemon daemon(options, report);
  if (!daemon.ok()) return;
  // Longer than any run can complete: 400 blocks = 8000 requests.
  const std::vector<ReadRequest> sequence =
      BuildReadSequence(options.seed, 400, Entry::kDaemon);
  const std::vector<QueryClass>& classes = ReadClasses();
  WarmUp(daemon.endpoint(), FirstOfEachClass(sequence));

  std::vector<Reply> untraced;
  std::vector<Reply> traced;
  std::vector<double> waits;  // traced QUERYs' queue waits, us
  double elapsed_s = 0;
  if (!options.trace) {
    untraced = RunReadPhase(daemon.endpoint(), sequence, options.seconds,
                            &elapsed_s);
    report->EndToEnd("peak_rss_mb", PeakRssMb(false), "MB", 1);
  } else {
    double untraced_s = 0;
    untraced = RunReadPhase(daemon.endpoint(), sequence, options.seconds / 2,
                            &untraced_s);
    egocensus::obs::SetEnabled(true);
    QueueSampler sampler(daemon.server());
    traced = RunReadPhase(daemon.endpoint(), sequence, options.seconds,
                          &elapsed_s);
    waits = sampler.Stop();
  }
  daemon.FinishSetup();
  if (!daemon.ok()) return;
  daemon.ReportSetup();
  const std::vector<Reply>& measured = options.trace ? traced : untraced;

  std::unique_ptr<Resident> resident = LoadResident(daemon.path(), report);
  if (resident == nullptr) return;
  std::vector<Counts> references = References(*resident, classes, report);
  CheckReadReplies(untraced, sequence, *resident, references, report);
  if (options.trace) {
    CheckReadReplies(traced, sequence, *resident, references, report);
  }
  std::size_t mismatches =
      FocalStateMismatches(untraced) + FocalStateMismatches(traced);
  report->Note("check.focal_state_mismatch " + std::to_string(mismatches) +
               " (OK replies with focal_pending > 0)");

  ClassLatencies latencies = SplitByClass(measured, sequence);
  std::size_t completed = 0;
  for (const Reply& r : measured) completed += ResultOk(r.message) ? 1 : 0;
  const double qps = static_cast<double>(completed) / elapsed_s;

  if (!options.trace) {
    report->EndToEnd("query_p50_ms", Percentile(latencies.all, 500), "ms",
                     latencies.all.size());
    report->EndToEnd("query_p95_ms", Percentile(latencies.all, 950), "ms",
                     latencies.all.size());
    report->EndToEnd("query_qps", qps, "1/s", completed);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      report->EndToEnd(classes[c].name + "_ms",
                       Percentile(latencies.by_class[c], 500), "ms",
                       latencies.by_class[c].size());
    }
    return;
  }

  // ---- traced run: per-layer split ----
  report->Blocking("query_p50_ms", Percentile(latencies.all, 500), "ms");
  report->Blocking("setup_s", daemon.setup_median_s(), "s");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    report->Blocking(classes[c].name + "_ms",
                     Percentile(latencies.by_class[c], 500), "ms");
  }
  MeasureSharedLayers({resident->graph, resident->indexes, daemon.path(),
                       sequence, options.seed, 1},
                      "net.update_idle_p50_ms", report);
  std::vector<std::size_t> frame_bytes(classes.size(), 0);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const Reply& r : measured) {
      if (sequence[r.index].cls == c && ResultOk(r.message)) {
        frame_bytes[c] = MeasureFrame(classes[c].name, *r.message, 100, report);
        break;
      }
    }
  }

  // The write path over the network, off the measured traffic: single-edge
  // UPDATEs on the idle daemon and beside 2 closed-loop tri1 readers (the
  // writer-starvation probe), with the writes that follow the stream
  // MeasureSharedLayers replayed. Both probes end on the base graph, which
  // is checked.
  const std::size_t replayed = kReplayedCycles * kWriteCycle;
  const std::vector<Write> stream =
      BuildWriteStream(resident->graph, options.seed, 2 * replayed);
  std::vector<Write> singles = Singles({stream.begin() + replayed, stream.end()});
  const std::size_t want = 2 * kMinBeyond + 2;
  UpdateProbeResult idle_probe =
      UpdateProbe(daemon.endpoint(), {}, singles, want, 20.0, report);
  const std::vector<double>& idle = idle_probe.update_ms;
  singles.erase(singles.begin(), singles.begin() + idle.size());
  const std::vector<ReadRequest> readers = Tri1Requests(sequence);
  UpdateProbeResult starved_probe =
      UpdateProbe(daemon.endpoint(), readers, singles, want, 20.0, report);
  const std::vector<double>& starved = starved_probe.update_ms;
  if (!GraphIsBase(daemon.server(), resident->graph)) {
    report->CheckFailed("resident graph differs from the base after the "
                        "UPDATE probes");
  }
  std::set<std::uint64_t> base_versions = {daemon.base_version()};
  base_versions.insert(idle_probe.base_versions.begin(),
                       idle_probe.base_versions.end());
  base_versions.insert(starved_probe.base_versions.begin(),
                       starved_probe.base_versions.end());
  CheckProbeReads(starved_probe.reads, readers, base_versions, *resident,
                  references, report);

  // Daemon-only layers: printed, not in the result line (BENCHMARK.json
  // lists the layers both workloads measure).
  SpanTable spans;
  auto span_us = [&](const std::string& name, const std::string& span,
                     const std::string& feeds) {
    const std::string key = "pb/" + span;
    report->Layer(name, spans.MeanUs(key), "us", spans.Count(key), feeds);
  };
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::string& name = classes[c].name;
    const std::string feeds = name + "_ms";
    // Round-trip median minus the in-process execution median: framing,
    // sockets, admission and request handling around the census.
    std::optional<double> round_trip = Percentile(latencies.by_class[c], 500);
    std::optional<double> exec_us =
        Percentile(spans.Us("pb/census." + name + ".exec"), 500);
    report->Layer("net." + name + ".overhead_ms",
                  round_trip.has_value() && exec_us.has_value()
                      ? std::optional<double>(*round_trip - *exec_us / 1e3)
                      : std::nullopt,
                  "ms", latencies.by_class[c].size(), feeds);
    span_us("net." + name + ".encode_us", "net." + name + ".encode", feeds);
    span_us("net." + name + ".decode_us", "net." + name + ".decode", feeds);
    report->Layer("net." + name + ".response_bytes",
                  static_cast<double>(frame_bytes[c]), "bytes", 1);
  }
  report->Blocking("query_p95_ms", Percentile(latencies.all, 950), "ms");
  report->Layer("net.queue_us_p95", Percentile(waits, 950), "us", waits.size(),
                "query_p95_ms");
  std::optional<double> idle_p50 = Percentile(idle, 500);
  report->Blocking("net.update_idle_p50_ms", idle_p50, "ms");
  report->Layer("net.update_idle_p50_ms", idle_p50, "ms", idle.size());
  report->Layer("net.update_starved_p50_ms", Percentile(starved, 500), "ms",
                starved.size(), "net.update_idle_p50_ms");
  std::optional<double> apply_ms = spans.MeanMs("pb/dynamic.apply");
  std::optional<double> materialize_ms = spans.MeanMs("pb/dynamic.materialize");
  std::optional<double> build_ms = spans.MeanMs("pb/graph.index_build");
  report->Layer("dynamic.update_cover_pct",
                idle_p50.has_value() && apply_ms.has_value() &&
                        materialize_ms.has_value() && build_ms.has_value()
                    ? std::optional<double>(
                          100.0 * (*apply_ms + *materialize_ms + *build_ms) /
                          *idle_p50)
                    : std::nullopt,
                "%", idle.size(), "net.update_idle_p50_ms");
  report->Layer("obs.trace_overhead_pct",
                TraceOverheadPct(Timings(untraced), Timings(traced)), "%",
                traced.size());
  report->Layer("check.focal_state_mismatch", static_cast<double>(mismatches),
                "count", untraced.size() + traced.size());
}

}  // namespace perfbench
