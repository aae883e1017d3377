// Fleet coordinator: the single process that owns the Controller and the
// campaign journal, and farms scenario execution out to worker processes.
//
// Topology: the coordinator spawns `spawn` local workers (fork+exec over a
// Unix socketpair) and optionally listens on loopback TCP for
// `remoteSlots` externally started workers. Workers execute scenarios;
// only the coordinator ever touches the Controller, so Algorithm 1's
// learning loop stays strictly sequential and deterministic.
//
// The coordinator is the process-transport face of the campaign scheduler
// (campaign/scheduler.h), which CampaignRunner shares, so the same
// determinism contract holds: the journal is a pure function of (seed,
// L = batch x slots, total). Worker crashes, wedge kills, reassignment,
// drain, and kill-plus-resume never change the journal bytes; an
// interrupted-and-resumed campaign's journal is byte-identical to an
// uninterrupted same-seed run's.
//
// Failure handling: per-worker heartbeats with deadline detection, pid
// liveness checks, per-slot wedge deadlines (kill the process to recover
// the slot — unlike an in-process thread, a process can always be killed),
// capped-exponential-backoff respawns from a bounded budget, and in-flight
// reassignment (outcomes are pure functions of points). Completed outcomes
// additionally live in per-worker shard files (fleet/shard.h) so that
// killing the *coordinator* loses nothing either: resume() merges shards
// and re-folds instead of re-executing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "common/proc.h"

namespace avd::campaign::fleet {

/// Launches worker #slot and returns its pid plus the coordinator's end of
/// the connection. Production: spawnWithSocket of this binary in
/// fleet-worker mode. Tests: a std::thread running runWorker over a
/// socketpair, with pid = -1 (failure detection then rests on EOF and
/// heartbeats alone; "kill" degrades to closing the socket).
using Launcher =
    std::function<std::optional<util::SpawnedProcess>(std::size_t slot)>;

struct FleetOptions {
  /// seed / totalTests / outDir / system / checkpointEvery /
  /// scenarioTimeoutMs / dedupMinImpact / controller are honored;
  /// `workers` is derived as spawn + remoteSlots.
  CampaignOptions campaign;
  /// Locally spawned workers (via `launcher`).
  std::size_t spawn = 2;
  /// Additional slots filled by workers connecting over TCP.
  std::size_t remoteSlots = 0;
  /// IPv4 address (and optional fixed port; 0 = ephemeral) the
  /// remote-worker listener binds. The loopback default is a deliberate
  /// safety posture — the worker protocol is unauthenticated, so exposing
  /// it on a routable interface is an explicit, caller-audited decision
  /// (avd_cli requires --allow-any-bind before it accepts 0.0.0.0).
  std::string bindAddr = "127.0.0.1";
  std::uint16_t bindPort = 0;
  /// Scenarios assigned to one worker at a time; the generation window is
  /// L = batch * (spawn + remoteSlots).
  std::size_t batch = 4;
  std::uint64_t heartbeatMs = 200;
  /// A worker silent for heartbeatMs * this factor is declared dead.
  std::uint64_t heartbeatMissFactor = 25;
  /// Leeway for exec + executor construction before liveness deadlines
  /// apply to a freshly (re)spawned worker; also the window during which
  /// an empty remote slot counts as "progress still possible".
  std::uint64_t spawnGraceMs = 10000;
  /// Process respawn budget across the whole run; 0 = never respawn.
  std::size_t maxWorkerRespawns = 8;
  std::uint64_t respawnBackoffBaseMs = 50;
  std::uint64_t respawnBackoffCapMs = 1000;
  /// After this many wedge kills of the same test, fold a timed-out zero
  /// outcome instead of reassigning it again.
  std::size_t wedgeKillLimit = 2;
  Launcher launcher;
  /// When non-null and set true (e.g. from a SIGTERM handler), the
  /// coordinator drains: stops assigning, keeps generating per the window
  /// invariant (so the journal stays a canonical prefix), and returns once
  /// every already-assigned scenario has folded.
  std::atomic<bool>* drainFlag = nullptr;
};

class FleetCoordinator {
 public:
  /// Binds the TCP listener when remoteSlots > 0 (throws on failure), so
  /// listenPort() is valid before run()/resume() starts.
  FleetCoordinator(FleetOptions options, ExecutorFactory factory,
                   PluginFactory plugins = {});
  ~FleetCoordinator();

  /// Fresh campaign; writes a mode="fleet" manifest when outDir is set.
  CampaignResult run();
  /// Continues a fleet campaign directory: journal replay + shard merge.
  CampaignResult resume();

  /// Loopback port remote workers should connect to; 0 when not listening.
  [[nodiscard]] std::uint16_t listenPort() const;

 private:
  CampaignResult runOrResume(bool resume);

  FleetOptions options_;
  ExecutorFactory factory_;
  PluginFactory plugins_;
  std::optional<util::TcpListener> listener_;
};

}  // namespace avd::campaign::fleet
