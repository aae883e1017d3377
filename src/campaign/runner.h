// Campaign engine: AVD exploration as a resumable, parallel, long-lived
// campaign (docs/campaign.md).
//
// The paper's controller explores one scenario at a time; each scenario
// re-initializes a full deployment, so test *execution* is embarrassingly
// parallel while test *generation* is a cheap sequential learning step.
// CampaignRunner is the in-process face of the campaign scheduler
// (campaign/scheduler.h): one Controller drives Algorithm 1 while W
// ScenarioExecutor instances, one per thread slot, each owning its own
// fresh deployments, execute scenarios. Slots take one scenario at a time,
// so the generation window is L = W, and outcomes fold in test order: a
// campaign's journal is a pure function of (seed, W, total).
//
// Reliability properties:
//  * every acquire and report is journaled (campaign/journal.h), so a
//    killed campaign resumes exactly where it stopped;
//  * a worker that throws produces a failed zero-impact outcome, not a dead
//    campaign;
//  * an optional watchdog declares scenarios that exceed a wall-clock
//    budget timed out and abandons their slot to a fresh executor, so one
//    wedged scenario cannot stall the whole campaign (a campaign whose
//    every slot wedges past the respawn budget aborts with partial
//    results).
//
// With workers == 1 and no watchdog the scenario executes on the calling
// thread in acquire -> execute -> report order, which makes a serial
// campaign bit-identical to Controller::runTests for the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "avd/controller.h"
#include "avd/executor.h"
#include "campaign/dedup.h"
#include "campaign/journal.h"

namespace avd::campaign {

/// Builds one executor instance. Called once per worker; each instance is
/// owned by exactly one worker thread at a time. Instances must be
/// behaviorally identical (same options/seeds) so an outcome is a pure
/// function of the point regardless of which worker runs it.
using ExecutorFactory =
    std::function<std::unique_ptr<core::ScenarioExecutor>()>;

/// Optional plugin-set override; defaults to core::defaultPlugins.
using PluginFactory =
    std::function<std::vector<core::PluginPtr>(const core::Hyperspace&)>;

struct CampaignOptions {
  std::uint64_t seed = 2011;
  std::size_t totalTests = 100;
  /// Executor-pool width W. 1 = serial (bit-identical to runTests).
  std::size_t workers = 1;
  /// Campaign directory for journal/manifest/checkpoint; empty = in-memory.
  std::string outDir;
  /// Free-form executor label recorded in the manifest (e.g. "quorum") so a
  /// resuming process knows which factory to rebuild.
  std::string system = "custom";
  /// Checkpoint refresh cadence, in completed scenarios.
  std::size_t checkpointEvery = 16;
  /// Per-scenario wall-clock budget; 0 disables the watchdog.
  std::uint64_t scenarioTimeoutMs = 0;
  /// Watchdog-retired worker slots are revived with a fresh executor after
  /// a capped-exponential backoff, up to this many times per campaign;
  /// after that, wedged slots stay retired (and a campaign whose every
  /// slot is retired still aborts). 0 restores the old poison-forever
  /// behavior.
  std::size_t maxWorkerRespawns = 4;
  /// Minimum impact for a scenario to enter vulnerability triage.
  double dedupMinImpact = 0.5;
  core::ControllerOptions controller;
};

struct CampaignResult {
  /// History in fold order, which is test order (a resumed journal of the
  /// old completion-order runner keeps its replayed prefix's order).
  std::vector<core::TestRecord> history;
  double maxImpact = 0.0;
  std::size_t executed = 0;
  std::size_t failed = 0;    // executor threw
  std::size_t timedOut = 0;  // wedged past its wall-clock budget
  /// True when every worker slot wedged and the campaign gave up early;
  /// history holds the completed prefix.
  bool aborted = false;
  /// Worker slots revived after a crash or wedge (in-process respawns plus
  /// fleet process respawns).
  std::size_t respawns = 0;
  /// Scenarios re-executed on another worker after their original worker
  /// died mid-batch (fleet only; outcomes are pure functions of points, so
  /// re-execution is safe).
  std::size_t reassigned = 0;
  /// Worker slots lost: fleet process deaths and wedged thread slots.
  std::size_t workerCrashes = 0;
  /// Deduplicated vulnerability classes (impact >= dedupMinImpact).
  std::vector<VulnClass> classes;
};

class CampaignRunner {
 public:
  CampaignRunner(ExecutorFactory factory, CampaignOptions options,
                 PluginFactory plugins = {});

  /// Fresh campaign. Creates/truncates the campaign directory files when
  /// options.outDir is set. Throws std::runtime_error on I/O failure.
  CampaignResult run();

  /// Continues the campaign stored in options.outDir: replays the journal
  /// against a fresh controller (no re-execution), re-executes scenarios
  /// that were in flight at the kill, then keeps exploring to the
  /// manifest's totalTests. The manifest's seed/workers/budget override the
  /// constructor options. Throws std::runtime_error when the directory is
  /// missing, corrupt, or diverges from deterministic replay.
  CampaignResult resume();

 private:
  CampaignResult runOrResume(bool resume);

  ExecutorFactory factory_;
  CampaignOptions options_;
  PluginFactory plugins_;
};

}  // namespace avd::campaign
