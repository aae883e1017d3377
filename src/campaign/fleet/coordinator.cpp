#include "campaign/fleet/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "campaign/scheduler.h"
#include "common/framing.h"

namespace avd::campaign::fleet {

namespace {

/// Worker slots as processes behind framed sockets: launched children
/// (fork+exec or, in tests, threads over socketpairs) and workers that
/// connect over TCP. Owns the hello/welcome handshake, heartbeat and pid
/// liveness, and the poll loop; whatever exits the campaign, no worker
/// process and no descriptor outlives it.
class ProcessTransport final : public Transport {
 public:
  ProcessTransport(const FleetOptions& options, util::TcpListener* listener,
                   std::map<std::uint64_t, std::uint64_t> nextIncarnation)
      : options_(options),
        listener_(listener),
        nextIncarnation_(std::move(nextIncarnation)),
        conns_(options.spawn + options.remoteSlots),
        heartbeatDeadline_(options.heartbeatMs *
                           std::max<std::uint64_t>(
                               1, options.heartbeatMissFactor)),
        connectDeadline_(
            std::max(options.spawnGraceMs,
                     options.heartbeatMs * options.heartbeatMissFactor)) {}

  ~ProcessTransport() override {
    for (std::size_t s = 0; s < conns_.size(); ++s) killWorker(s);
  }

  Launch launch(std::size_t slot) override {
    const auto child =
        options_.launcher ? options_.launcher(slot) : std::nullopt;
    if (!child) return Launch::kFailed;
    Conn& conn = conns_[slot];
    conn.pid = child->pid;
    conn.fd = child->fd;
    conn.reader = util::FrameReader{};
    conn.active = false;
    conn.lastHeard = WatchClock::now();
    return Launch::kStarting;
  }

  bool assignTest(std::size_t slot, std::uint64_t test,
                  const core::Point& point) override {
    Assign assign;
    assign.test = test;
    assign.point = point;
    return util::writeFrame(conns_[slot].fd, encodeAssign(assign));
  }

  void killWorker(std::size_t slot) override {
    Conn& conn = conns_[slot];
    if (conn.fd >= 0) {
      util::closeFd(conn.fd);
      conn.fd = -1;
    }
    conn.reader = util::FrameReader{};
    conn.active = false;
    if (conn.pid > 0) {
      util::killProcess(conn.pid);
      (void)util::reapProcess(conn.pid);
      conn.pid = -1;
    }
  }

  void awaitEvents(WatchClock::time_point until,
                   std::vector<Event>& events) override {
    // Poll every live descriptor until the nearest operational deadline.
    const auto now = WatchClock::now();
    std::vector<pollfd> fds;
    std::vector<std::size_t> fdSlot;  // parallel; SIZE_MAX = TCP listener
    if (listener_ != nullptr) {
      fds.push_back(pollfd{listener_->fd, POLLIN, 0});
      fdSlot.push_back(SIZE_MAX);
    }
    WatchClock::time_point nearest =
        std::min(until, now + std::chrono::milliseconds(100));  // pid tick
    for (std::size_t s = 0; s < conns_.size(); ++s) {
      if (conns_[s].fd < 0) continue;
      fds.push_back(pollfd{conns_[s].fd, POLLIN, 0});
      fdSlot.push_back(s);
      nearest = std::min(nearest, conns_[s].lastHeard +
                                      (conns_[s].active ? heartbeatDeadline_
                                                        : connectDeadline_));
    }
    const auto waitMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                            nearest - now)
                            .count();
    const int timeoutMs =
        static_cast<int>(std::clamp<long long>(waitMs, 1, 1000));
    const int ready = util::pollSockets(fds.data(), fds.size(), timeoutMs);
    if (ready < 0) {
      throw std::runtime_error("fleet: poll failed");
    }

    const auto afterPoll = WatchClock::now();
    for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fdSlot[i] == SIZE_MAX) {
        acceptRemote(afterPoll);
        continue;
      }
      const std::size_t s = fdSlot[i];
      Conn& conn = conns_[s];
      if (conn.fd != fds[i].fd) continue;  // torn down earlier this sweep
      if (!conn.reader.pump(conn.fd)) {
        die(s, events);
        continue;
      }
      for (;;) {
        const auto frame = conn.reader.next();
        if (!frame) {
          if (conn.reader.corrupt() && conn.fd >= 0) die(s, events);
          break;
        }
        if (!handleFrame(s, *frame, afterPoll, events)) {
          if (conn.fd >= 0) die(s, events);
          break;
        }
        if (conn.fd < 0) break;  // died inside handleFrame
      }
    }

    // Liveness sweep: dead processes and silent workers.
    const auto tick = WatchClock::now();
    for (std::size_t s = 0; s < conns_.size(); ++s) {
      Conn& conn = conns_[s];
      if (conn.fd < 0) continue;
      if (conn.pid > 0 && util::processExited(conn.pid)) {
        conn.pid = -1;  // processExited already reaped it
        die(s, events);
      } else if (tick >= conn.lastHeard + (conn.active ? heartbeatDeadline_
                                                        : connectDeadline_)) {
        die(s, events);
      }
    }
  }

  bool mayConnect(std::size_t slot,
                  WatchClock::duration sinceStart) const override {
    // An empty remote slot counts as hope only during the startup grace
    // window; past that, an all-dead fleet aborts instead of waiting
    // forever for a worker that may never connect.
    return conns_[slot].fd >= 0 ||
           (listener_ != nullptr &&
            sinceStart < std::chrono::milliseconds(options_.spawnGraceMs));
  }

  void shutdown() override {
    // Shutdown frames let workers exit 0; EOF covers any that miss it;
    // reap so nothing is left as a zombie.
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) {
        (void)util::writeFrame(conn.fd, encodeShutdown());
        util::closeFd(conn.fd);
        conn.fd = -1;
      }
      if (conn.pid > 0) {
        (void)util::reapProcess(conn.pid);
        conn.pid = -1;
      }
    }
  }

 private:
  struct Conn {
    pid_t pid = -1;
    int fd = -1;
    util::FrameReader reader;
    bool active = false;  // welcomed; connecting until then
    WatchClock::time_point lastHeard{};  // any frame
  };

  void die(std::size_t slot, std::vector<Event>& events) {
    killWorker(slot);
    events.push_back({Event::Kind::kDied, slot, {}});
  }

  void acceptRemote(WatchClock::time_point now) {
    const auto accepted = util::acceptTcp(listener_->fd);
    if (!accepted) return;
    for (std::size_t s = options_.spawn; s < conns_.size(); ++s) {
      if (conns_[s].fd >= 0) continue;
      conns_[s].fd = *accepted;
      conns_[s].reader = util::FrameReader{};
      conns_[s].lastHeard = now;
      return;
    }
    util::closeFd(*accepted);  // no room: refuse politely
  }

  /// Returns false when the frame is a protocol violation (caller tears
  /// the slot down). May itself tear the slot down (fd becomes -1).
  bool handleFrame(std::size_t slot, const std::string& payload,
                   WatchClock::time_point now, std::vector<Event>& events) {
    Conn& conn = conns_[slot];
    conn.lastHeard = now;
    switch (kindOf(payload)) {
      case MessageKind::kHello: {
        if (conn.active) return true;
        Welcome welcome;
        welcome.slot = slot;
        welcome.incarnation = nextIncarnation_[slot]++;
        welcome.system = options_.campaign.system;
        welcome.seed = options_.campaign.seed;
        welcome.outDir = options_.campaign.outDir;
        welcome.heartbeatMs = options_.heartbeatMs;
        if (!util::writeFrame(conn.fd, encodeWelcome(welcome))) {
          die(slot, events);
          return false;
        }
        conn.active = true;
        events.push_back({Event::Kind::kReady, slot, {}});
        return true;
      }
      case MessageKind::kHeartbeat:
        return decodeHeartbeat(payload).has_value();
      case MessageKind::kOutcome: {
        auto event = decodeLine(payload);
        if (!event || event->kind != JournalEvent::Kind::kDone) return false;
        events.push_back({Event::Kind::kOutcome, slot, std::move(event->done)});
        return true;
      }
      default:
        return false;
    }
  }

  const FleetOptions& options_;
  util::TcpListener* listener_;
  std::map<std::uint64_t, std::uint64_t> nextIncarnation_;
  std::vector<Conn> conns_;
  std::chrono::milliseconds heartbeatDeadline_;
  std::chrono::milliseconds connectDeadline_;
};

}  // namespace

FleetCoordinator::FleetCoordinator(FleetOptions options,
                                   ExecutorFactory factory,
                                   PluginFactory plugins)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      plugins_(std::move(plugins)) {
  if (!factory_) throw std::runtime_error("fleet: null executor factory");
  if (options_.spawn + options_.remoteSlots == 0) {
    throw std::runtime_error("fleet: zero worker slots");
  }
  if (options_.batch == 0) options_.batch = 1;
  if (options_.heartbeatMs == 0) options_.heartbeatMs = 200;
  if (options_.campaign.checkpointEvery == 0) {
    options_.campaign.checkpointEvery = 16;
  }
  if (options_.remoteSlots > 0) {
    listener_ = util::listenTcp(options_.bindPort, options_.bindAddr);
    if (!listener_) {
      throw std::runtime_error("fleet: cannot bind TCP listener on " +
                               options_.bindAddr);
    }
  }
}

FleetCoordinator::~FleetCoordinator() {
  if (listener_ && listener_->fd >= 0) util::closeFd(listener_->fd);
}

std::uint16_t FleetCoordinator::listenPort() const {
  return listener_ ? listener_->port : 0;
}

CampaignResult FleetCoordinator::run() { return runOrResume(false); }

CampaignResult FleetCoordinator::resume() {
  const Manifest manifest = adoptManifest(options_.campaign);
  if (manifest.mode != "fleet") {
    throw std::runtime_error("fleet: '" + options_.campaign.outDir +
                             "' holds a single-process campaign; resume it "
                             "with `avd_cli campaign --resume`");
  }
  // Beyond what adoptManifest pins, the generation window L = batch x
  // workers shapes the journal's interleave. The spawn/remote split merely
  // re-creates the original fleet shape.
  options_.batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(manifest.batch));
  options_.heartbeatMs = manifest.heartbeatMs ? manifest.heartbeatMs : 200;
  options_.spawn = static_cast<std::size_t>(
      std::min<std::uint64_t>(manifest.spawn, manifest.workers));
  options_.remoteSlots =
      static_cast<std::size_t>(manifest.workers) - options_.spawn;
  if (options_.remoteSlots > 0 && !listener_) {
    listener_ = util::listenTcp(options_.bindPort, options_.bindAddr);
  }
  return runOrResume(true);
}

CampaignResult FleetCoordinator::runOrResume(bool resume) {
  const auto probe = factory_();
  if (!probe) throw std::runtime_error("fleet: executor factory returned null");
  const std::string& dir = options_.campaign.outDir;

  SchedulePlan plan;
  plan.campaign = options_.campaign;
  plan.slots = options_.spawn + options_.remoteSlots;
  plan.launched = options_.spawn;
  plan.batch = options_.batch;
  plan.wedgeKillLimit = options_.wedgeKillLimit;
  plan.maxRespawns = options_.launcher ? options_.maxWorkerRespawns : 0;
  plan.backoffBaseMs = options_.respawnBackoffBaseMs;
  plan.backoffCapMs = options_.respawnBackoffCapMs;
  plan.drainFlag = options_.drainFlag;
  plan.wedgeError = "scenario exceeded fleet wedge budget";
  plan.manifest.mode = "fleet";
  plan.manifest.batch = options_.batch;
  plan.manifest.spawn = options_.spawn;
  plan.manifest.heartbeatMs = options_.heartbeatMs;
  plan.resume = resume;
  MergedShards merged;
  if (resume) {
    // Shards recover every outcome a worker completed that the journal
    // never folded (coordinator killed, or its tail torn): re-fold instead
    // of re-execute, including tests beyond the journal's cut, which fold
    // when the deterministic generator re-reaches their number.
    merged = mergeShards(dir);
    plan.recovered = std::move(merged.outcomes);
    plan.carried = loadCheckpoint(dir).value_or(Checkpoint{});
  } else if (!dir.empty()) {
    // A fresh campaign truncates the journal, so shards from whatever
    // campaign previously lived here are stale history that a later
    // --resume would wrongly merge.
    removeShards(dir);
  }
  ProcessTransport transport(options_, listener_ ? &*listener_ : nullptr,
                             std::move(merged.nextIncarnation));
  return schedule(std::move(plan), *probe, plugins_, transport);
}

}  // namespace avd::campaign::fleet
