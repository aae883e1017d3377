#include "campaign/scheduler.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <utility>

#include "avd/plugin.h"

namespace avd::campaign {

namespace {

constexpr WatchClock::time_point kNever{};

/// Controller state reconstructed by replaying a journal (no re-execution).
struct ReplayState {
  /// Scenarios with a journaled "gen" but no "done" — in flight at the
  /// kill; the resuming driver re-executes them first.
  std::map<std::uint64_t, core::GeneratedScenario> pending;
  std::uint64_t nextTest = 1;  // next un-generated 1-based test number
  std::size_t replayedFailed = 0;
  std::size_t replayedTimedOut = 0;
};

/// Feeds journaled events through `controller` in recorded order, verifying
/// each regenerated scenario and folded best-impact against the journal.
/// The controller is a deterministic function of the acquire/report
/// interleaving, so this rebuilds Π/Ω/Ψ/µ and the plugin fitness exactly,
/// whatever order the done lines come in. Throws std::runtime_error on
/// divergence (wrong seed, edited journal, changed hyperspace).
ReplayState replayJournal(core::Controller& controller,
                          const std::vector<JournalEvent>& events) {
  ReplayState state;
  for (const JournalEvent& event : events) {
    if (event.kind == JournalEvent::Kind::kGen) {
      core::GeneratedScenario scenario = controller.acquireScenario();
      if (scenario.point != event.gen.point ||
          scenario.generatedBy != event.gen.generatedBy ||
          event.gen.test != state.nextTest) {
        throw std::runtime_error(
            "campaign: journal diverges from deterministic replay (wrong "
            "seed, edited journal, or changed hyperspace)");
      }
      state.pending.emplace(event.gen.test, std::move(scenario));
      ++state.nextTest;
    } else {
      const auto it = state.pending.find(event.done.test);
      if (it == state.pending.end()) {
        throw std::runtime_error(
            "campaign: journal reports a scenario that was never generated");
      }
      controller.reportOutcome(std::move(it->second), event.done.outcome);
      state.pending.erase(it);
      if (controller.maxImpact() != event.done.bestImpact) {
        throw std::runtime_error(
            "campaign: replayed best impact diverges from journal");
      }
      state.replayedFailed += event.done.failed ? 1 : 0;
      state.replayedTimedOut += event.done.timedOut ? 1 : 0;
    }
  }
  return state;
}

struct Slot {
  enum class Phase { kIdle, kStarting, kActive, kBackoff, kRetired };
  Phase phase = Phase::kIdle;
  std::deque<std::uint64_t> assigned;   // outstanding tests, assignment order
  WatchClock::time_point wedgeAt{};     // kActive: current scenario deadline
  WatchClock::time_point respawnAt{};   // kBackoff: when to relaunch
  std::uint64_t backoffMs = 0;          // capped-exponential ladder position
};

}  // namespace

DoneEvent executeGuarded(core::ScenarioExecutor& executor, std::uint64_t test,
                         const core::Point& point) {
  DoneEvent done;
  done.test = test;
  try {
    done.outcome = executor.execute(point);
  } catch (const std::exception& e) {
    done.failed = true;
    done.error = e.what();
  } catch (...) {
    done.failed = true;
    done.error = "unknown executor exception";
  }
  return done;
}

Manifest adoptManifest(CampaignOptions& options) {
  if (options.outDir.empty()) {
    throw std::runtime_error("campaign: resume requires outDir");
  }
  const auto manifest = loadManifest(options.outDir);
  if (!manifest) {
    throw std::runtime_error("campaign: missing/corrupt manifest in '" +
                             options.outDir + "'");
  }
  // The manifest is authoritative: a resumed campaign must regenerate the
  // exact same exploration, whatever the caller was given.
  options.seed = manifest->seed;
  options.totalTests = static_cast<std::size_t>(manifest->totalTests);
  options.checkpointEvery = std::max<std::size_t>(
      1, static_cast<std::size_t>(manifest->checkpointEvery));
  options.scenarioTimeoutMs = manifest->scenarioTimeoutMs;
  options.system = manifest->system;
  return *manifest;
}

CampaignResult schedule(SchedulePlan plan, core::ScenarioExecutor& probe,
                        const PluginFactory& plugins, Transport& transport) {
  const CampaignOptions& options = plan.campaign;
  const std::string& dir = options.outDir;
  const core::Hyperspace& space = probe.space();
  core::Controller controller(
      probe, plugins ? plugins(space) : core::defaultPlugins(space),
      options.controller, options.seed);

  JournalWriter journal;
  ReplayState replayed;
  if (plan.resume) {
    const auto loaded = loadJournal(journalPath(dir));
    if (!loaded) {
      throw std::runtime_error("campaign: corrupt journal in '" + dir + "'");
    }
    replayed = replayJournal(controller, loaded->events);
    if (!journal.openResume(journalPath(dir), loaded->validBytes)) {
      throw std::runtime_error("campaign: cannot reopen journal in '" + dir +
                               "'");
    }
  } else if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    Manifest& manifest = plan.manifest;
    manifest.system = options.system;
    manifest.seed = options.seed;
    manifest.totalTests = options.totalTests;
    manifest.workers = plan.slots;
    manifest.checkpointEvery = options.checkpointEvery;
    manifest.scenarioTimeoutMs = options.scenarioTimeoutMs;
    if (!writeManifest(dir, manifest) ||
        !journal.openFresh(journalPath(dir))) {
      throw std::runtime_error("campaign: cannot write to '" + dir + "'");
    }
  }

  CampaignResult result;
  result.failed = replayed.replayedFailed;
  result.timedOut = replayed.replayedTimedOut;
  result.respawns = static_cast<std::size_t>(plan.carried.respawns);
  result.reassigned = static_cast<std::size_t>(plan.carried.reassigned);
  result.workerCrashes = static_cast<std::size_t>(plan.carried.workerCrashes);

  const std::uint64_t total = options.totalTests;
  const std::size_t window = plan.batch * plan.slots;
  const auto timeout = std::chrono::milliseconds(options.scenarioTimeoutMs);
  std::uint64_t nextTest = replayed.nextTest;
  // Generated but not yet folded. A set rather than a fold counter: a
  // journal of the old completion-order runner resumes with gaps in it.
  std::map<std::uint64_t, core::GeneratedScenario> unfolded =
      std::move(replayed.pending);
  std::map<std::uint64_t, DoneEvent> completed;  // awaiting their fold turn
  std::set<std::uint64_t> unassigned;
  std::map<std::uint64_t, std::size_t> wedgeKills;
  std::size_t respawnsUsed = 0;
  bool draining = false;
  std::vector<Slot> slots(plan.slots);

  const auto appendLine = [&](const std::string& line) {
    if (journal.isOpen() && !journal.append(line)) {
      throw std::runtime_error("campaign: journal append failed (disk full?)");
    }
  };

  const auto maybeCheckpoint = [&](bool force) {
    if (dir.empty()) return;
    const std::size_t folded = controller.executedTests();
    if (!force && folded % options.checkpointEvery != 0) return;
    // Journal bytes reach disk before the checkpoint that summarizes them.
    if (journal.isOpen()) journal.sync();
    Checkpoint checkpoint;
    checkpoint.generated = nextTest - 1;
    checkpoint.completed = folded;
    checkpoint.maxImpact = controller.maxImpact();
    checkpoint.respawns = result.respawns;
    checkpoint.reassigned = result.reassigned;
    checkpoint.workerCrashes = result.workerCrashes;
    writeCheckpoint(dir, checkpoint);
  };

  // A test that just came into existence runs, unless an out-of-band
  // outcome already covers it (outcomes are pure functions of points).
  const auto admit = [&](std::uint64_t test) {
    const auto it = plan.recovered.find(test);
    if (it == plan.recovered.end()) {
      unassigned.insert(test);
      return;
    }
    completed.emplace(test, std::move(it->second));
    plan.recovered.erase(it);
  };
  for (const auto& entry : unfolded) admit(entry.first);

  const auto topUp = [&] {
    while (nextTest <= total && unfolded.size() < window) {
      core::GeneratedScenario scenario = controller.acquireScenario();
      appendLine(encodeGen({nextTest, scenario.point, scenario.generatedBy,
                            scenario.parentImpact,
                            static_cast<std::int64_t>(scenario.pluginIndex)}));
      unfolded.emplace(nextTest, std::move(scenario));
      admit(nextTest++);
    }
  };

  const auto foldReady = [&] {
    while (!unfolded.empty()) {
      const auto it = completed.find(unfolded.begin()->first);
      if (it == completed.end()) return;
      DoneEvent done = std::move(it->second);
      completed.erase(it);
      controller.reportOutcome(std::move(unfolded.begin()->second),
                               done.outcome);
      unfolded.erase(unfolded.begin());
      done.bestImpact = controller.maxImpact();
      appendLine(encodeDone(done));
      result.failed += done.failed ? 1 : 0;
      result.timedOut += done.timedOut ? 1 : 0;
      maybeCheckpoint(false);
      topUp();
    }
  };

  const auto backOff = [&](Slot& slot, WatchClock::time_point now) {
    if (respawnsUsed >= plan.maxRespawns) {
      slot.phase = Slot::Phase::kRetired;
      return;
    }
    ++respawnsUsed;
    slot.backoffMs =
        slot.backoffMs == 0
            ? std::max<std::uint64_t>(1, plan.backoffBaseMs)
            : std::min(slot.backoffMs * 2,
                       std::max<std::uint64_t>(1, plan.backoffCapMs));
    slot.phase = Slot::Phase::kBackoff;
    slot.respawnAt = now + std::chrono::milliseconds(slot.backoffMs);
  };

  const auto launch = [&](std::size_t index, WatchClock::time_point now,
                          bool isRespawn) {
    switch (transport.launch(index)) {
      case Transport::Launch::kFailed:
        backOff(slots[index], now);
        return;
      case Transport::Launch::kStarting:
        slots[index].phase = Slot::Phase::kStarting;
        break;
      case Transport::Launch::kReady:
        slots[index].phase = Slot::Phase::kActive;
        break;
    }
    if (isRespawn) ++result.respawns;
  };

  const auto handleDeath = [&](std::size_t index, bool wedged,
                               WatchClock::time_point now) {
    Slot& slot = slots[index];
    ++result.workerCrashes;
    transport.killWorker(index);
    std::uint64_t culprit = 0;
    if (wedged && !slot.assigned.empty()) {
      // Workers execute their batch serially in assignment order, so the
      // scenario on the deadline is the head of the queue.
      culprit = slot.assigned.front();
      ++wedgeKills[culprit];
    }
    for (const std::uint64_t test : slot.assigned) {
      if (!unfolded.contains(test) || completed.contains(test)) continue;
      if (test == culprit && wedgeKills[test] >= plan.wedgeKillLimit) {
        // This point wedged enough fresh workers; fold a timed-out zero
        // outcome instead of feeding it another one.
        DoneEvent done;
        done.test = test;
        done.timedOut = true;
        done.error = plan.wedgeError;
        completed.emplace(test, std::move(done));
      } else {
        unassigned.insert(test);
        ++result.reassigned;
      }
    }
    slot.assigned.clear();
    slot.wedgeAt = kNever;
    if (index < plan.launched) {
      backOff(slot, now);
    } else {
      slot.phase = Slot::Phase::kIdle;  // the next worker to connect takes it
    }
  };

  const auto assignWork = [&](WatchClock::time_point now) {
    if (draining) return;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      while (slot.phase == Slot::Phase::kActive &&
             slot.assigned.size() < plan.batch && !unassigned.empty()) {
        const std::uint64_t test = *unassigned.begin();
        if (!transport.assignTest(s, test, unfolded.at(test).point)) {
          handleDeath(s, false, now);
          break;
        }
        unassigned.erase(unassigned.begin());
        if (slot.assigned.empty() && timeout.count() > 0) {
          slot.wedgeAt = now + timeout;
        }
        slot.assigned.push_back(test);
      }
    }
  };

  const auto startAt = WatchClock::now();
  const auto progressPossible = [&](WatchClock::time_point now) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const Slot::Phase phase = slots[s].phase;
      if (phase == Slot::Phase::kActive || phase == Slot::Phase::kStarting ||
          phase == Slot::Phase::kBackoff ||
          (phase == Slot::Phase::kIdle &&
           transport.mayConnect(s, now - startAt))) {
        return true;
      }
    }
    return false;
  };

  for (std::size_t s = 0; s < plan.launched; ++s) launch(s, startAt, false);
  // Order matters on resume: a torn journal can owe gen lines at the
  // replayed fold point (the canonical interleave puts gen(k+L) right after
  // done(k)), so the window is topped up BEFORE the first recovered outcome
  // folds and appends its done line.
  topUp();
  std::vector<Transport::Event> events;
  for (;;) {
    foldReady();
    if (controller.executedTests() >= total) break;
    if (plan.drainFlag != nullptr &&
        plan.drainFlag->load(std::memory_order_relaxed)) {
      draining = true;
    }
    WatchClock::time_point now = WatchClock::now();
    assignWork(now);

    std::size_t outstanding = 0;
    for (const Slot& slot : slots) outstanding += slot.assigned.size();
    if (outstanding == 0) {
      if (draining) break;  // drained: all assigned work has folded
      if (!progressPossible(now)) {
        // Every slot is dead and none can come back: partial results.
        result.aborted = true;
        break;
      }
    }

    WatchClock::time_point until = WatchClock::time_point::max();
    for (const Slot& slot : slots) {
      if (slot.phase == Slot::Phase::kActive && slot.wedgeAt != kNever) {
        until = std::min(until, slot.wedgeAt);
      } else if (slot.phase == Slot::Phase::kBackoff) {
        until = std::min(until, slot.respawnAt);
      }
    }
    events.clear();
    transport.awaitEvents(until, events);

    now = WatchClock::now();
    for (Transport::Event& event : events) {
      Slot& slot = slots[event.slot];
      if (event.kind == Transport::Event::Kind::kDied) {
        handleDeath(event.slot, false, now);
      } else if (event.kind == Transport::Event::Kind::kReady) {
        slot.phase = Slot::Phase::kActive;
      } else {
        const std::uint64_t test = event.done.test;
        const auto at =
            std::find(slot.assigned.begin(), slot.assigned.end(), test);
        if (at != slot.assigned.end()) slot.assigned.erase(at);
        slot.backoffMs = 0;  // a delivered outcome resets the backoff ladder
        slot.wedgeAt = (slot.assigned.empty() || timeout.count() == 0)
                           ? kNever
                           : now + timeout;
        if (unfolded.contains(test) && !completed.contains(test)) {
          completed.emplace(test, std::move(event.done));
          unassigned.erase(test);
        }
      }
    }

    // Deadline sweep: wedged scenarios and elapsed respawn backoffs.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const Slot& slot = slots[s];
      if (slot.phase == Slot::Phase::kActive && slot.wedgeAt != kNever &&
          now >= slot.wedgeAt) {
        handleDeath(s, true, now);
      } else if (slot.phase == Slot::Phase::kBackoff && now >= slot.respawnAt) {
        launch(s, now, true);
      }
    }
  }
  transport.shutdown();

  result.history = controller.history();
  result.executed = result.history.size();
  result.maxImpact = controller.maxImpact();
  result.classes =
      dedupVulnerabilities(space, result.history, options.dedupMinImpact);
  maybeCheckpoint(true);
  return result;
}

}  // namespace avd::campaign
