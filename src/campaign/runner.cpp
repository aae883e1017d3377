#include "campaign/runner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/scheduler.h"
#include "common/lockdep.h"
#include "common/thread_pool.h"

namespace avd::campaign {

namespace {

// Thread slots take one scenario at a time, so the window is L = W.
constexpr std::size_t kThreadBatch = 1;
// A thread cannot be killed: a wedged scenario folds as timed out at its
// first deadline instead of wedging a fresh executor too.
constexpr std::size_t kThreadWedgeKillLimit = 1;

/// Worker slots as executors on util::ThreadPool. Killing a slot abandons
/// its executor, which may still be running the wedged scenario: the slot
/// relaunches with a fresh executor, and the old one lives until the pool
/// has joined. With no pool the scenario runs on the calling thread.
class ThreadTransport final : public Transport {
 public:
  ThreadTransport(ExecutorFactory factory,
                  std::unique_ptr<core::ScenarioExecutor> first,
                  std::size_t slots, std::size_t threads)
      : factory_(std::move(factory)),
        first_(std::move(first)),
        current_(slots, nullptr) {
    if (threads > 0) pool_.emplace(threads);
  }

  Launch launch(std::size_t slot) override {
    // The first launch takes the probe the controller was built on.
    owned_.push_back(first_ ? std::move(first_) : factory_());
    if (!owned_.back()) {
      throw std::runtime_error("campaign: executor factory returned null");
    }
    current_[slot] = owned_.back().get();
    return Launch::kReady;
  }

  bool assignTest(std::size_t slot, std::uint64_t test,
                  const core::Point& point) override {
    core::ScenarioExecutor* executor = current_[slot];
    if (!pool_) {
      finished_.push_back(
          {slot, executor, executeGuarded(*executor, test, point)});
      return true;
    }
    pool_->submit([this, slot, executor, test, point] {
      Finished finished{slot, executor, executeGuarded(*executor, test, point)};
      {
        const std::lock_guard<lockdep::Mutex> guard(mutex_);
        finished_.push_back(std::move(finished));
      }
      cv_.notify_all();
    });
    return true;
  }

  void killWorker(std::size_t slot) override { current_[slot] = nullptr; }

  void awaitEvents(WatchClock::time_point until,
                   std::vector<Event>& events) override {
    std::unique_lock<lockdep::Mutex> lock(mutex_);
    const auto ready = [this] { return !finished_.empty(); };
    if (pool_ && until == WatchClock::time_point::max()) {
      cv_.wait(lock, ready);
    } else if (pool_) {
      cv_.wait_until(lock, until, ready);
    }
    for (Finished& finished : finished_) {
      // A late result from an abandoned executor was already folded as
      // timed out.
      if (finished.executor != current_[finished.slot]) continue;
      events.push_back(
          {Event::Kind::kOutcome, finished.slot, std::move(finished.done)});
    }
    finished_.clear();
  }

 private:
  struct Finished {
    std::size_t slot;
    core::ScenarioExecutor* executor;
    DoneEvent done;
  };

  ExecutorFactory factory_;
  std::unique_ptr<core::ScenarioExecutor> first_;
  std::vector<std::unique_ptr<core::ScenarioExecutor>> owned_;
  std::vector<core::ScenarioExecutor*> current_;  // per slot; null = killed
  lockdep::Mutex mutex_{"campaign::ThreadTransport::mutex_"};
  lockdep::CondVar cv_;
  std::vector<Finished> finished_;  // guarded by mutex_
  // Declared last: its destructor joins every thread, including one still
  // running an abandoned wedged scenario, while the state above is alive.
  std::optional<util::ThreadPool> pool_;
};

}  // namespace

CampaignRunner::CampaignRunner(ExecutorFactory factory,
                               CampaignOptions options, PluginFactory plugins)
    : factory_(std::move(factory)),
      options_(std::move(options)),
      plugins_(std::move(plugins)) {
  if (!factory_) throw std::runtime_error("campaign: null executor factory");
  if (options_.workers == 0) options_.workers = 1;
  if (options_.checkpointEvery == 0) options_.checkpointEvery = 16;
}

CampaignResult CampaignRunner::run() { return runOrResume(false); }

CampaignResult CampaignRunner::resume() {
  // Thread slots ignore the manifest's batch field: in-process manifests
  // carry the fleet default there.
  options_.workers = std::max<std::size_t>(
      1, static_cast<std::size_t>(adoptManifest(options_).workers));
  return runOrResume(true);
}

CampaignResult CampaignRunner::runOrResume(bool resume) {
  std::unique_ptr<core::ScenarioExecutor> probe = factory_();
  if (!probe) {
    throw std::runtime_error("campaign: executor factory returned null");
  }
  core::ScenarioExecutor& controllerExecutor = *probe;

  SchedulePlan plan;
  plan.campaign = options_;
  plan.slots = plan.launched = options_.workers;
  plan.batch = kThreadBatch;
  plan.wedgeKillLimit = kThreadWedgeKillLimit;
  const bool watchdog = options_.scenarioTimeoutMs > 0;
  plan.maxRespawns = watchdog ? options_.maxWorkerRespawns : 0;
  plan.wedgeError = "scenario exceeded watchdog budget";
  plan.resume = resume;
  // One slot without a watchdog runs inline and starts no thread. Otherwise
  // the pool has room for every slot plus every wedged scenario the respawn
  // budget can leave running on its own.
  const std::size_t threads =
      options_.workers == 1 && !watchdog ? 0
                                         : options_.workers + plan.maxRespawns;
  ThreadTransport transport(factory_, std::move(probe), options_.workers,
                            threads);
  return schedule(std::move(plan), controllerExecutor, plugins_, transport);
}

}  // namespace avd::campaign
