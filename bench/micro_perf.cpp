// E7 — engineering micro-benchmarks (google-benchmark): substrate costs
// that bound how many AVD tests per second the platform can run. Not a
// paper figure; included to validate the simulator substitution (DESIGN.md)
// is fast enough for the exhaustive sweeps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "avd/controller.h"
#include "avd/pbft_executor.h"
#include "crypto/authenticator.h"
#include "crypto/keychain.h"
#include "pbft/deployment.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

using namespace avd;

namespace {

void BM_MacGenerate(benchmark::State& state) {
  crypto::Keychain keychain(42);
  crypto::MacService macs(0, &keychain);
  std::uint64_t digest = 0x123456789abcdefULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(macs.generate(1, digest));
    ++digest;
  }
}
BENCHMARK(BM_MacGenerate);

void BM_Authenticator(benchmark::State& state) {
  crypto::Keychain keychain(42);
  crypto::MacService macs(0, &keychain);
  const auto replicas = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t digest = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(macs.authenticate(digest++, replicas));
  }
}
BENCHMARK(BM_Authenticator)->Arg(4)->Arg(7)->Arg(13);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator(1);
    constexpr int kEvents = 10000;
    for (int i = 0; i < kEvents; ++i) {
      simulator.schedule(i, [] {});
    }
    state.ResumeTiming();
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

class BenchPayload final : public sim::Message {
 public:
  std::uint32_t kind() const noexcept override { return 1; }
};

class SinkNode final : public sim::Node {
 public:
  using sim::Node::Node;
  void receive(util::NodeId /*from*/, const sim::MessagePtr& /*m*/) override {
    ++received;
  }
  std::uint64_t received = 0;
};

/// Message hops through Network: 16 registered nodes, 1 ms +- 0.5 ms links,
/// 10000 sends per iteration (send, fault chain, latency, delivery upcall).
void BM_NetworkDelivery(benchmark::State& state) {
  constexpr util::NodeId kNodes = 16;
  constexpr int kSends = 10000;
  const sim::MessagePtr payload = std::make_shared<BenchPayload>();
  std::uint64_t received = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator(1);
    sim::Network network(&simulator,
                         sim::LinkModel{sim::msec(1), sim::usec(500)});
    std::vector<std::unique_ptr<SinkNode>> nodes;
    for (util::NodeId id = 0; id < kNodes; ++id) {
      nodes.push_back(std::make_unique<SinkNode>(id));
      network.registerNode(nodes.back().get());
    }
    state.ResumeTiming();
    for (int i = 0; i < kSends; ++i) {
      const auto from = static_cast<util::NodeId>(i % kNodes);
      network.send(from, (from + 1 + static_cast<util::NodeId>(i / kNodes)) %
                             kNodes,
                   payload);
    }
    simulator.run();
    for (const auto& node : nodes) received += node->received;
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * kSends);
  state.SetLabel("message hops");
}
BENCHMARK(BM_NetworkDelivery);

/// Client-retransmission-style timer churn: each node arms a 100 ms retx
/// timer per request, and the reply (1-2 ms later) cancels and re-arms it,
/// so nearly every armed timer is cancelled before it fires.
class RetxNode final : public sim::Node {
 public:
  using sim::Node::Node;
  void receive(util::NodeId /*from*/, const sim::MessagePtr& /*m*/) override {}
  void start() override { issue(); }
  std::uint64_t armed = 0;

 private:
  void issue() {
    retx_ = setTimer(sim::msec(100), [this] { issue(); });
    ++armed;
    const sim::Time reply =
        sim::msec(1) +
        static_cast<sim::Time>(simulator().rng().below(sim::msec(1)));
    setTimer(reply, [this] {
      cancelTimer(retx_);
      issue();
    });
  }
  sim::TimerId retx_ = 0;
};

void BM_TimerArmCancel(benchmark::State& state) {
  constexpr util::NodeId kNodes = 64;
  std::uint64_t armed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator(1);
    sim::Network network(&simulator, sim::LinkModel{});
    std::vector<std::unique_ptr<RetxNode>> nodes;
    for (util::NodeId id = 0; id < kNodes; ++id) {
      nodes.push_back(std::make_unique<RetxNode>(id));
      network.registerNode(nodes.back().get());
    }
    state.ResumeTiming();
    for (const auto& node : nodes) node->start();
    simulator.runUntil(sim::msec(200));
    for (const auto& node : nodes) armed += node->armed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(armed));
  state.SetLabel("timers armed (each then cancelled)");
}
BENCHMARK(BM_TimerArmCancel);

/// Requests committed per wall-second through a full f=1..3 deployment.
void BM_PbftCommitThroughput(benchmark::State& state) {
  const auto f = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t requests = 0;
  for (auto _ : state) {
    pbft::DeploymentConfig config;
    config.pbft.f = f;
    config.correctClients = 10;
    config.warmup = 0;
    config.measure = sim::msec(500);
    config.seed = 7;
    const pbft::RunResult result = pbft::runScenario(config);
    requests += result.correctCompleted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.SetLabel("committed requests/s (wall)");
}
BENCHMARK(BM_PbftCommitThroughput)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

/// Cost of one AVD test (deployment build + run + impact computation).
void BM_AvdTestExecution(benchmark::State& state) {
  core::PbftExecutorOptions options;
  options.warmup = sim::msec(100);
  options.measure = sim::msec(500);
  options.defaultCorrectClients = 10;
  core::Hyperspace space;
  space.add(core::Dimension::grayBitmask("mac_mask", 12));
  core::PbftAttackExecutor executor(std::move(space), options);
  std::uint64_t mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.execute(core::Point{mask++ & 0xFFF}));
  }
  state.SetLabel("one full AVD test");
}
BENCHMARK(BM_AvdTestExecution)->Unit(benchmark::kMillisecond);

/// Read-heavy KV workload with and without the read-only optimization
/// (tentative execution: one round trip instead of three-phase ordering).
void BM_PbftReadHeavyWorkload(benchmark::State& state) {
  const bool readOnly = state.range(0) != 0;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    pbft::DeploymentConfig config;
    config.pbft.f = 1;
    config.service = pbft::ServiceKind::kKv;
    config.correctClients = 8;
    config.warmup = 0;
    config.measure = sim::msec(500);
    config.seed = 11;
    config.correctClientBehavior.opGenerator = [](util::RequestId i) {
      if (i % 8 == 1) return pbft::KvService::encodePut("k", "v");
      return pbft::KvService::encodeGet("k");
    };
    if (readOnly) {
      config.correctClientBehavior.readOnlyPredicate =
          [](util::RequestId i) { return i % 8 != 1; };
    }
    completed += pbft::runScenario(config).correctCompleted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel(readOnly ? "tentative read-only reads"
                          : "fully ordered reads");
}
BENCHMARK(BM_PbftReadHeavyWorkload)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Scenario-generation overhead of Algorithm 1 (without execution).
void BM_ControllerGeneration(benchmark::State& state) {
  class NullExecutor final : public core::ScenarioExecutor {
   public:
    NullExecutor() {
      space_.add(core::Dimension::grayBitmask("mac_mask", 12));
      space_.add(core::Dimension::range("correct_clients", 10, 250, 10));
    }
    core::Outcome execute(const core::Point& point) override {
      core::Outcome outcome;
      outcome.impact = static_cast<double>(point[0] % 97) / 97.0;
      return outcome;
    }
    const core::Hyperspace& space() const noexcept override { return space_; }

   private:
    core::Hyperspace space_;
  };

  NullExecutor executor;
  core::Controller controller(executor,
                              core::defaultPlugins(executor.space()));
  for (auto _ : state) {
    controller.runTests(1);
  }
  state.SetLabel("generate+bookkeep one scenario");
}
BENCHMARK(BM_ControllerGeneration);

}  // namespace

BENCHMARK_MAIN();
