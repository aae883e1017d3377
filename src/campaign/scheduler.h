// The campaign scheduler: the one engine behind CampaignRunner (thread
// slots) and fleet::FleetCoordinator (worker processes).
//
// Algorithm 1 learns one scenario at a time; only execution fans out. The
// scheduler owns everything on the learning side: the controller, the
// journal and manifest, the generation window, folding, checkpoints, wedge
// deadlines, the respawn budget, drain and abort. Worker slots sit behind a
// Transport, which only launches, feeds, watches and kills workers.
//
// Determinism contract: "gen" lines are appended whenever fewer than
// L = batch x slots scenarios are generated but not yet folded, and
// outcomes fold strictly in test order (early completions wait in memory).
// The journal is therefore a pure function of (seed, L, total): worker
// timing, crashes, wedge kills, reassignment, drain and kill-plus-resume
// never change its bytes. With L = 1 the interleave is gen1, done1, gen2,
// ..., exactly Controller::runTests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "campaign/runner.h"

namespace avd::campaign {

// The watch clock: wedge deadlines, worker liveness and respawn backoff.
// Wall-clock reads are banned in deterministic paths (lint R1) because
// scenario content must replay from a seed; this clock only decides how
// long the scheduler waits for a worker, never what is generated, which
// outcome a point produces, or the order outcomes fold in.
// avd-lint: allow(nondeterminism)
using WatchClock = std::chrono::steady_clock;

/// Executes `point` as test `test`. A throwing executor yields a failed
/// zero-impact outcome, not a dead campaign.
DoneEvent executeGuarded(core::ScenarioExecutor& executor, std::uint64_t test,
                         const core::Point& point);

/// How the scheduler reaches its worker slots. Every call comes from the
/// scheduling thread.
class Transport {
 public:
  enum class Launch { kFailed, kStarting, kReady };
  struct Event {
    enum class Kind { kReady, kOutcome, kDied };
    Kind kind = Kind::kReady;
    std::size_t slot = 0;
    DoneEvent done;  // kOutcome
  };

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  /// Starts a fresh worker in `slot`; kStarting workers report kReady
  /// later.
  virtual Launch launch(std::size_t slot) = 0;
  /// Hands test `test` to the slot's worker; false when it proved dead.
  virtual bool assignTest(std::size_t slot, std::uint64_t test,
                          const core::Point& point) = 0;
  /// Gives up on the slot's current worker (idempotent).
  virtual void killWorker(std::size_t slot) = 0;
  /// Appends events, blocking until at least one arrives or `until`.
  virtual void awaitEvents(WatchClock::time_point until,
                           std::vector<Event>& events) = 0;
  /// Whether an idle slot beyond `SchedulePlan::launched` may still get a
  /// worker that connects by itself.
  virtual bool mayConnect(std::size_t /*slot*/,
                          WatchClock::duration /*sinceStart*/) const {
    return false;
  }
  /// Lets the remaining workers exit cleanly.
  virtual void shutdown() {}
};

/// One scheduling run, as the facades derive it from their options.
struct SchedulePlan {
  CampaignOptions campaign;  // `workers` and `maxWorkerRespawns` unused
  std::size_t slots = 1;
  std::size_t launched = 1;  // slots [0, launched) are launched; the rest
                             // wait for workers to connect
  std::size_t batch = 1;     // scenarios per slot; L = batch * slots
  std::size_t wedgeKillLimit = 1;  // wedge kills before a test times out
  std::size_t maxRespawns = 0;
  std::uint64_t backoffBaseMs = 50;
  std::uint64_t backoffCapMs = 1000;
  std::atomic<bool>* drainFlag = nullptr;
  const char* wedgeError = "";
  /// Fresh runs write this with the common fields filled in from
  /// `campaign` and `slots`; resumes replay the journal in outDir instead.
  Manifest manifest;
  bool resume = false;
  /// Outcomes recovered out of band (fleet shards): each folds as soon as
  /// its test exists, instead of executing again.
  std::map<std::uint64_t, DoneEvent> recovered;
  Checkpoint carried;  // robustness counters of the interrupted run
};

/// Runs the plan's campaign to its budget, drain or abort. `probe` builds
/// the controller and must outlive the call.
CampaignResult schedule(SchedulePlan plan, core::ScenarioExecutor& probe,
                        const PluginFactory& plugins, Transport& transport);

/// Loads the manifest of the campaign in options.outDir for a resume and
/// adopts what it pins: seed, budget, checkpoint cadence, timeout, system.
/// Throws std::runtime_error when outDir is empty or the manifest is
/// missing or corrupt.
Manifest adoptManifest(CampaignOptions& options);

}  // namespace avd::campaign
