// Campaign benchmark program: runs ONE repetition of a fixed-size AVD campaign
// (serial runner or multi-process fleet) and prints its raw measurements as
// one JSON line. perfbench/run.py repeats it, takes medians and checks the
// outputs; see perfbench/README.md for the workloads and metrics.
//
//   campaign_bench run --workload mac-serial|flood-serial|mac-fleet
//                      --seed S --tests N --dir DIR [--trace 0|1]
//                      [--setup-probes K]
//   campaign_bench fleet-worker (spawned by the fleet workload)
//
// Every layer is measured from outside: a ScenarioExecutor decorator
// (TimedExecutor) times execute() and runs PbftAttackExecutor::baselineFor
// for each new (clients, malicious) pair before delegating, so the baseline
// deployment that execute() would otherwise run invisibly becomes its own
// span while the outcome stays byte-identical (same cache, same call). After
// execute() it asks for the baseline again: that must be a cache hit (no
// CPU time spent) returning the value execute() scored the impact against,
// so a change that makes execute() bypass the cache is counted as a miss. With
// --trace 1 the decorator also keeps spans in memory and every journaled
// point is re-executed through the public pbft::Deployment API for the
// pbft/sim counters.
//
// Wall-clock reads are the point of this file and never feed a consensus
// decision; each carries an allow(nondeterminism) directive.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "avd/gen/protocol_events.h"
#include "avd/pbft_executor.h"
#include "campaign/dedup.h"
#include "campaign/fleet/coordinator.h"
#include "campaign/fleet/worker.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "common/proc.h"
#include "faultinject/flood.h"
#include "pbft/deployment.h"

using namespace avd;

namespace {

std::int64_t nowNs() {
  // Benchmark timing only: spans and rates, never simulation input.
  const auto now = std::chrono::steady_clock::now();  // avd-lint: allow(nondeterminism)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

std::int64_t threadCpuNs() {
  // Benchmark check only: CPU time of a cache lookup, never simulation input.
  // (avd_lint does not count the thread CPU clock as nondeterministic, so
  // this read needs no directive.)
  struct timespec now {};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now) != 0) return 0;
  return static_cast<std::int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

std::uint64_t peakRssKb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string fmtDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::string system;  // avd_cli system whose options the workload uses
  bool fleet = false;
};

[[nodiscard]] std::optional<Workload> findWorkload(const std::string& name) {
  if (name == "mac-serial") return Workload{name, "pbft", false};
  if (name == "flood-serial") return Workload{name, "pbft-flood", false};
  if (name == "mac-fleet") return Workload{name, "pbft", true};
  return std::nullopt;
}

// Mirrors `avd_cli`'s makeExecutor for the two systems the workloads use.
std::unique_ptr<core::PbftAttackExecutor> makePbftExecutor(
    const std::string& system, std::uint64_t seed) {
  if (system == "pbft") {
    core::PbftExecutorOptions options;
    options.pbft.requestTimeout = sim::msec(400);
    options.pbft.viewChangeTimeout = sim::msec(400);
    options.clientRetx = sim::msec(100);
    options.link = sim::LinkModel{sim::msec(5), sim::usec(500)};
    options.warmup = sim::msec(400);
    options.measure = sim::msec(3000);
    options.baseSeed = seed;
    return std::make_unique<core::PbftAttackExecutor>(
        core::makePaperMacHyperspace(), options);
  }
  if (system == "pbft-flood") {
    core::PbftExecutorOptions options = core::makeFloodExecutorOptions(false);
    options.baseSeed = seed;
    return std::make_unique<core::PbftAttackExecutor>(
        core::makeFloodHyperspace(), options);
  }
  throw std::runtime_error("unknown system '" + system + "'");
}

// --- measurement ---------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::string id;
  std::string parent;
  std::uint64_t scenario = 0;  // Hyperspace::pointHash; 0 = not per-scenario
};

/// Per-process measurements. Counters are always kept (they cost two clock
/// reads per scenario); spans only when tracing.
struct Recorder {
  bool trace = false;
  /// Set-up probe: execute() returns a zero outcome without running
  /// anything, so a one-test campaign measures set-up alone.
  bool stub = false;
  std::string process;   // span-id prefix, unique within a repetition
  std::string rootSpan;  // parent of this process's avd.execute spans
  std::vector<Span> spans;
  std::int64_t launchNs = 0;     // fleet worker: coordinator began the spawn
  std::int64_t readyNs = 0;      // executor constructed
  std::int64_t firstExecNs = 0;  // first execute() began
  std::int64_t findEndNs = 0;    // first impact >= 0.9 (or safety) finished
  std::uint64_t executes = 0;
  std::int64_t executeNs = 0;  // including baseline runs
  std::uint64_t baselineRuns = 0;
  std::int64_t baselineNs = 0;
  /// execute() did not score against the cached baseline, or re-asking for
  /// it after execute() was not a cache hit.
  std::uint64_t baselineMisses = 0;
  double vsec = 0.0;  // virtual seconds simulated (scenarios + baselines)

  std::string spanId() const {
    return process + ":" + std::to_string(spans.size());
  }
  void addSpan(std::string name, std::int64_t start, std::int64_t end,
               std::string id, std::string parent, std::uint64_t scenario) {
    spans.push_back(Span{std::move(name), start, end, std::move(id),
                         std::move(parent), scenario});
  }

  std::string json(const std::string& role) const {
    std::ostringstream out;
    out << "{\"role\":" << quoted(role) << ",\"process\":" << quoted(process)
        << ",\"launch_ns\":" << launchNs << ",\"ready_ns\":" << readyNs << ",\"first_exec_ns\":" << firstExecNs
        << ",\"find_end_ns\":" << findEndNs << ",\"executes\":" << executes
        << ",\"execute_ns\":" << executeNs
        << ",\"baseline_runs\":" << baselineRuns
        << ",\"baseline_ns\":" << baselineNs
        << ",\"baseline_misses\":" << baselineMisses
        << ",\"vsec\":" << fmtDouble(vsec)
        << ",\"maxrss_kb\":" << peakRssKb() << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? "," : "") << "{\"name\":" << quoted(s.name)
          << ",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"id\":" << quoted(s.id) << ",\"parent\":" << quoted(s.parent)
          << ",\"scenario\":" << s.scenario << "}";
    }
    out << "]}";
    return out.str();
  }
};

bool writeText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  return static_cast<bool>(out);
}

/// Times execute() and surfaces the executor's hidden baseline runs.
class TimedExecutor final : public core::ScenarioExecutor {
 public:
  TimedExecutor(std::unique_ptr<core::PbftAttackExecutor> inner,
                Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {
    const core::PbftExecutorOptions& options = inner_->options();
    vsecPerRun_ = static_cast<double>(options.warmup + options.measure) /
                  static_cast<double>(sim::sec(1));
  }

  core::Outcome execute(const core::Point& point) override {
    const std::int64_t start = nowNs();
    if (recorder_->firstExecNs == 0) recorder_->firstExecNs = start;
    if (recorder_->stub) return core::Outcome{};
    const std::size_t slot = recorder_->spans.size();
    const std::string id = recorder_->spanId();
    const std::uint64_t scenario = inner_->space().pointHash(point);
    if (recorder_->trace) recorder_->spans.emplace_back();  // filled below

    // The same pair execute() passes to baselineFor; running it first fills
    // the cache execute() then hits.
    const pbft::DeploymentConfig config = inner_->buildConfig(point);
    const auto pair =
        std::make_pair(config.correctClients, config.maliciousClients);
    const auto [cached, fresh] = baselines_.try_emplace(pair, 0.0);
    if (fresh) {
      const std::int64_t baselineStart = nowNs();
      cached->second = inner_->baselineFor(pair.first, pair.second);
      const std::int64_t baselineEnd = nowNs();
      ++recorder_->baselineRuns;
      recorder_->baselineNs += baselineEnd - baselineStart;
      recorder_->vsec += vsecPerRun_;
      if (recorder_->trace) {
        recorder_->addSpan("avd.baseline", baselineStart, baselineEnd,
                           recorder_->spanId(), id, scenario);
      }
    }
    const core::Outcome outcome = inner_->execute(point);
    const std::int64_t end = nowNs();
    if (!scoredAgainst(outcome, pair, cached->second)) {
      ++recorder_->baselineMisses;
    }

    ++recorder_->executes;
    recorder_->executeNs += end - start;
    recorder_->vsec += vsecPerRun_;
    if (recorder_->findEndNs == 0 &&
        (outcome.impact >= 0.9 || outcome.safetyViolated)) {
      recorder_->findEndNs = end;
    }
    if (recorder_->trace) {
      recorder_->spans[slot] =
          Span{"avd.execute", start, end, id, recorder_->rootSpan, scenario};
    }
    return outcome;
  }

  const core::Hyperspace& space() const noexcept override {
    return inner_->space();
  }

 private:
  /// A cache hit costs a map lookup; a miss runs a whole deployment, which
  /// takes milliseconds of CPU even for the smallest population.
  static constexpr std::int64_t kCacheHitCpuNs = 200000;

  bool scoredAgainst(const core::Outcome& outcome,
                     const std::pair<std::uint32_t, std::uint32_t>& pair,
                     double baseline) {
    const std::int64_t cpuStart = threadCpuNs();
    const double again = inner_->baselineFor(pair.first, pair.second);
    const std::int64_t cpuNs = threadCpuNs() - cpuStart;
    // PbftAttackExecutor::execute's impact: 1 - throughput / baseline.
    const double impact =
        baseline > 0.0
            ? std::clamp(1.0 - outcome.throughputRps / baseline, 0.0, 1.0)
            : 0.0;
    return again == baseline && cpuNs < kCacheHitCpuNs &&
           impact == outcome.impact;
  }

  std::unique_ptr<core::PbftAttackExecutor> inner_;
  Recorder* recorder_;
  double vsecPerRun_ = 0.0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> baselines_;
};

// --- per-layer re-execution (--trace 1) ----------------------------------------

struct Reexec {
  std::uint64_t points = 0;
  std::uint64_t mismatches = 0;
  std::int64_t buildNs = 0;
  std::int64_t runNs = 0;
  std::uint64_t requestsCommitted = 0;
  std::uint64_t viewChanges = 0;
  std::uint64_t events = 0;
  double vsec = 0.0;
  std::uint64_t msgsSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t droppedQueueOverflow = 0;
  std::uint64_t peakIngressDepth = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t quotaDrops = 0;
  std::map<std::uint32_t, std::uint64_t> deliveredByKind;
};

/// Re-runs one point exactly as PbftAttackExecutor::runConfigured does for
/// the dimensions the benchmark's hyperspaces have (mac_mask and the
/// correct/malicious client counts live in buildConfig; flood_* is rebuilt
/// here with the public fi:: API).
pbft::RunResult reexecute(const core::PbftAttackExecutor& executor,
                          const core::Point& point, Recorder& recorder,
                          const std::string& parent, Reexec& totals) {
  const core::Hyperspace& space = executor.space();
  const std::uint64_t scenario = space.pointHash(point);
  const pbft::DeploymentConfig config = executor.buildConfig(point);

  const std::int64_t buildStart = nowNs();
  pbft::Deployment deployment(config);
  std::unique_ptr<fi::FloodClient> flood;
  const auto floodKind = space.valueOf(point, "flood_kind", 0);
  if (floodKind > 0 && floodKind <= 4) {
    fi::FloodOptions options;
    options.kind = static_cast<fi::FloodKind>(floodKind);
    const auto rate = space.valueOf(point, "flood_rate", 1000);
    options.interval =
        rate > 0 ? std::max<sim::Time>(sim::sec(1) / rate, 1) : sim::msec(1);
    options.payloadBytes = static_cast<std::size_t>(
        std::max<std::int64_t>(space.valueOf(point, "flood_bytes", 1), 1));
    const auto target = space.valueOf(point, "flood_target", -1);
    options.target =
        target >= 0 &&
                target < static_cast<std::int64_t>(config.pbft.replicaCount())
            ? static_cast<util::NodeId>(target)
            : util::kNoNode;
    flood = std::make_unique<fi::FloodClient>(
        config.pbft.replicaCount() + config.totalClients(), config.pbft,
        &deployment.keychain(), options);
    deployment.network().registerNode(flood.get());
    flood->install();
  }
  const std::int64_t buildEnd = nowNs();
  const pbft::RunResult result = deployment.run();
  const std::int64_t runEnd = nowNs();

  recorder.addSpan("pbft.build", buildStart, buildEnd, recorder.spanId(),
                   parent, scenario);
  recorder.addSpan("pbft.run", buildEnd, runEnd, recorder.spanId(), parent,
                   scenario);
  ++totals.points;
  totals.buildNs += buildEnd - buildStart;
  totals.runNs += runEnd - buildEnd;
  totals.requestsCommitted +=
      result.correctCompleted + result.maliciousCompleted;
  totals.viewChanges += result.viewChangesInitiated;
  totals.events += result.eventsExecuted;
  totals.vsec += static_cast<double>(config.warmup + config.measure) /
                 static_cast<double>(sim::sec(1));
  totals.msgsSent += result.network.sent;
  totals.bytesSent += result.network.bytesSent;
  totals.droppedQueueOverflow += result.network.droppedQueueOverflow;
  totals.peakIngressDepth =
      std::max(totals.peakIngressDepth, result.network.peakIngressDepth);
  totals.queueDrops += result.queueDrops;
  totals.quotaDrops += result.quotaDrops;
  for (const auto& [kind, count] : result.network.deliveredByKind) {
    totals.deliveredByKind[kind] += count;
  }
  return result;
}

std::string reexecJson(const Reexec& r) {
  std::ostringstream out;
  out << "{\"points\":" << r.points << ",\"mismatches\":" << r.mismatches
      << ",\"build_ns\":" << r.buildNs << ",\"run_ns\":" << r.runNs
      << ",\"requests_committed\":" << r.requestsCommitted
      << ",\"view_changes\":" << r.viewChanges << ",\"events\":" << r.events
      << ",\"vsec\":" << fmtDouble(r.vsec) << ",\"msgs_sent\":" << r.msgsSent
      << ",\"bytes_sent\":" << r.bytesSent
      << ",\"dropped_queue_overflow\":" << r.droppedQueueOverflow
      << ",\"peak_ingress_depth\":" << r.peakIngressDepth
      << ",\"queue_drops\":" << r.queueDrops
      << ",\"quota_drops\":" << r.quotaDrops << ",\"delivered_by_kind\":{";
  // Keyed by taxonomy name ("msg.prePrepare"); every message kind appears.
  bool first = true;
  for (const gen::ProtocolEventInfo& info : gen::kProtocolEvents) {
    if (info.wireKind == 0) continue;
    const auto it = r.deliveredByKind.find(info.wireKind);
    out << (first ? "" : ",") << quoted(std::string(info.name)) << ":"
        << (it == r.deliveredByKind.end() ? 0 : it->second);
    first = false;
  }
  out << "}}";
  return out.str();
}

// --- campaign ------------------------------------------------------------------

std::string recorderPath(const std::string& dir, const std::string& tag) {
  return dir + "/bench-rec-" + tag + ".json";
}

struct CampaignSpec {
  Workload workload;
  std::uint64_t seed = 2011;  // controller and deployment seed, as in avd_cli
  std::size_t tests = 0;
  bool trace = false;
};

/// One run() or resume() of the workload's campaign in `dir`. The process's
/// own measurements go to bench-rec-<tag>-main.json, each fleet worker's to
/// bench-rec-<tag>-w<slot>-<launch>.json.
class Harness {
 public:
  Harness(const CampaignSpec& spec, std::string dir, std::string tag,
          bool stub)
      : spec_(spec), dir_(std::move(dir)), tag_(std::move(tag)) {
    recorder_.trace = spec.trace;
    recorder_.process = tag_;
    recorder_.stub = stub;
    rootId_ = recorder_.spanId();
    recorder_.rootSpan = rootId_;
    recorder_.spans.emplace_back();  // campaign.run, filled in by run()
  }

  campaign::CampaignResult run(bool resume) {
    campaign::CampaignOptions options;
    options.seed = spec_.seed;
    options.totalTests = spec_.tests;
    options.workers = 1;
    options.outDir = dir_;
    options.system = spec_.workload.system;

    const campaign::ExecutorFactory factory = [this] {
      auto executor = std::make_unique<TimedExecutor>(
          makePbftExecutor(spec_.workload.system, spec_.seed),
          &recorder_);
      if (recorder_.readyNs == 0) recorder_.readyNs = nowNs();
      return executor;
    };

    start_ = nowNs();
    campaign::CampaignResult result;
    if (spec_.workload.fleet) {
      campaign::fleet::FleetOptions fleet;
      fleet.campaign = options;
      fleet.spawn = 2;
      fleet.batch = 4;
      fleet.launcher = [this](std::size_t slot) { return launch(slot); };
      campaign::fleet::FleetCoordinator coordinator(std::move(fleet),
                                                    factory);
      result = resume ? coordinator.resume() : coordinator.run();
    } else {
      campaign::CampaignRunner runner(factory, options);
      result = resume ? runner.resume() : runner.run();
    }
    end_ = nowNs();
    recorder_.spans[0] = Span{"campaign.run", start_, end_, rootId_, "", 0};
    return result;
  }

  void writeRecorder() {
    if (!spec_.trace) recorder_.spans.clear();
    if (!writeText(recorderPath(dir_, tag_ + "-main"),
                   recorder_.json("main"))) {
      throw std::runtime_error("cannot write recorder file in " + dir_);
    }
  }

  Recorder& recorder() { return recorder_; }
  std::int64_t start() const { return start_; }
  std::int64_t end() const { return end_; }

 private:
  [[nodiscard]] std::optional<util::SpawnedProcess> launch(std::size_t slot) {
    const std::int64_t start = nowNs();
    const std::string worker = tag_ + "-w" + std::to_string(slot) + "-" +
                               std::to_string(launches_++);
    auto spawned = util::spawnWithSocket(
        {util::selfExePath(), "fleet-worker", dir_, worker,
         spec_.trace ? "1" : "0",
         recorder_.stub ? "1" : "0", rootId_, std::to_string(start)});
    if (spec_.trace) {
      recorder_.addSpan("fleet.spawn", start, nowNs(), recorder_.spanId(),
                        rootId_, 0);
    }
    return spawned;
  }

  CampaignSpec spec_;
  std::string dir_;
  std::string tag_;
  Recorder recorder_;
  std::string rootId_;
  std::int64_t start_ = 0;
  std::int64_t end_ = 0;
  std::size_t launches_ = 0;
};

struct Args {
  std::map<std::string, std::string> values;

  std::string get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

int runCampaign(const Args& args) {
  const auto workload = findWorkload(args.get("workload"));
  if (!workload) throw std::runtime_error("unknown workload");
  CampaignSpec spec{*workload, std::stoull(args.get("seed")),
                    std::stoul(args.get("tests")),
                    args.get("trace", "0") == "1"};
  const std::string dir = args.get("dir");
  const std::size_t probes = std::stoul(args.get("setup-probes", "0"));

  // Set-up probes: one-test campaigns whose executors return at once, so
  // set-up time gets several samples per repetition. Set-up is mostly
  // fsyncs, whose latency drifts over seconds, so half run before the
  // campaign and half after it.
  std::string probeStarts;
  std::size_t probeIndex = 0;
  const auto runProbes = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++probeIndex) {
      CampaignSpec probeSpec = spec;
      probeSpec.tests = 1;
      probeSpec.trace = false;
      Harness probe(probeSpec, dir + "/probe" + std::to_string(probeIndex),
                    "probe", true);
      (void)probe.run(false);
      probe.writeRecorder();
      probeStarts += (probeIndex ? "," : "") + std::to_string(probe.start());
    }
  };
  runProbes(probes / 2);

  Harness main(spec, dir, "main", false);
  const campaign::CampaignResult result = main.run(false);

  // Output checks that need the program: dedup over the history, and
  // resume() over the finished directory, which must reproduce the result
  // while executing nothing (Python checks the resume recorders' counts).
  auto reference = makePbftExecutor(workload->system, spec.seed);
  const core::Hyperspace& space = reference->space();
  const std::int64_t dedupStart = nowNs();
  const auto classes = campaign::dedupVulnerabilities(
      space, result.history, campaign::CampaignOptions{}.dedupMinImpact);
  const std::int64_t dedupEnd = nowNs();
  const std::string classesJson =
      campaign::vulnClassesJson(space, result.classes);
  const bool dedupOk = campaign::vulnClassesJson(space, classes) == classesJson;

  Harness resume(spec, dir, "resume", false);
  const campaign::CampaignResult resumed = resume.run(true);
  resume.writeRecorder();
  const bool resumeOk =
      resumed.maxImpact == result.maxImpact &&
      resumed.executed == result.executed &&
      campaign::vulnClassesJson(space, resumed.classes) == classesJson;

  std::string reexec = "null";
  if (spec.trace) {
    const auto journal = campaign::loadJournal(campaign::journalPath(dir));
    if (!journal) throw std::runtime_error("cannot reload journal");
    Recorder& recorder = main.recorder();
    const std::string parent = recorder.spanId();
    const std::size_t slot = recorder.spans.size();
    recorder.spans.emplace_back();
    const std::int64_t reexecStart = nowNs();
    std::map<std::uint64_t, core::Point> points;
    Reexec totals;
    for (const campaign::JournalEvent& event : journal->events) {
      if (event.kind == campaign::JournalEvent::Kind::kGen) {
        points[event.gen.test] = event.gen.point;
        continue;
      }
      const campaign::DoneEvent& done = event.done;
      if (done.failed || done.timedOut) continue;
      const pbft::RunResult rerun = reexecute(
          *reference, points.at(done.test), recorder, parent, totals);
      if (rerun.throughputRps != done.outcome.throughputRps) {
        ++totals.mismatches;
      }
    }
    recorder.spans[slot] =
        Span{"trace.reexec", reexecStart, nowNs(), parent, "", 0};
    reexec = reexecJson(totals);
  }
  main.writeRecorder();
  runProbes(probes - probes / 2);

  std::ostringstream out;
  out << "{\"workload\":" << quoted(workload->name) << ",\"seed\":" << spec.seed
      << ",\"tests\":" << spec.tests
      << ",\"campaign_start_ns\":" << main.start()
      << ",\"campaign_end_ns\":" << main.end()
      << ",\"executed\":" << result.executed << ",\"failed\":" << result.failed
      << ",\"timed_out\":" << result.timedOut
      << ",\"aborted\":" << (result.aborted ? "true" : "false")
      << ",\"respawns\":" << result.respawns
      << ",\"reassigned\":" << result.reassigned
      << ",\"worker_crashes\":" << result.workerCrashes
      << ",\"max_impact\":" << fmtDouble(result.maxImpact)
      << ",\"classes\":" << result.classes.size()
      << ",\"dedup_ns\":" << dedupEnd - dedupStart
      << ",\"dedup_ok\":" << (dedupOk ? "true" : "false")
      << ",\"resume_ns\":" << resume.end() - resume.start()
      << ",\"resume_ok\":" << (resumeOk ? "true" : "false")
      << ",\"probe_starts_ns\":[" << probeStarts << "]"
      << ",\"reexec\":" << reexec << ",\"compiler\":" << quoted(__VERSION__)
      << ",\"build_type\":" << quoted(AVD_BENCH_BUILD_TYPE)
#if defined(__OPTIMIZE__)
      << ",\"optimized\":true"
#else
      << ",\"optimized\":false"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      << ",\"sanitized\":true"
#else
      << ",\"sanitized\":false"
#endif
      << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Worker process: argv = fleet-worker DIR TAG TRACE STUB PARENT_SPAN
/// LAUNCH_NS; measurements go to DIR/bench-rec-TAG.json.
int runFleetWorker(int argc, char** argv) {
  if (argc < 8) return campaign::fleet::kWorkerExitBadConfig;
  const std::string dir = argv[2];
  Recorder recorder;
  recorder.process = argv[3];
  recorder.trace = std::strcmp(argv[4], "1") == 0;
  recorder.stub = std::strcmp(argv[5], "1") == 0;
  recorder.rootSpan = argv[6];
  recorder.launchNs = std::stoll(argv[7]);
  const int code = campaign::fleet::runWorker(
      util::kChildSocketFd,
      [&recorder](const std::string& system, std::uint64_t seed)
          -> std::unique_ptr<core::ScenarioExecutor> {
        auto executor = std::make_unique<TimedExecutor>(
            makePbftExecutor(system, seed), &recorder);
        recorder.readyNs = nowNs();
        return executor;
      });
  (void)writeText(recorderPath(dir, recorder.process),
                  recorder.json("worker"));
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::strcmp(argv[1], "fleet-worker") == 0) {
      return runFleetWorker(argc, argv);
    }
    if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
      std::fprintf(stderr,
                   "usage: campaign_bench run --workload W --seed S "
                   "--tests N --dir DIR [--trace 0|1] "
                   "[--setup-probes K]\n");
      return 2;
    }
    Args args;
    for (int i = 2; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        std::fprintf(stderr, "bad argument '%s'\n", argv[i]);
        return 2;
      }
      args.values[argv[i] + 2] = argv[i + 1];
    }
    return runCampaign(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
