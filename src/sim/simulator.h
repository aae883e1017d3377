// Deterministic discrete-event simulation engine.
//
// This is the multi-node emulation substrate that replaces the paper's
// Emulab deployment: hundreds of PBFT replicas and clients run as event-
// driven state machines inside a single process, with virtual time advanced
// by an event queue. Determinism contract: for a fixed seed and a fixed
// sequence of schedule() calls, event execution order is identical across
// runs (ties on timestamp break by insertion order).
//
// The queue is allocation-light. A 4-ary heap orders plain
// {when, id, slot} entries; payloads live in a recycled slot table. Besides
// the generic closure event there are two typed kinds that cost no heap
// closure: a network delivery (dispatched to Network::deliver) and a node
// timer (fired only in the node incarnation that armed it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/time.h"

namespace avd::sim {

class Network;
class Node;

/// Identifier of a cancelable scheduled event. Ids are issued sequentially
/// (1, 2, 3, ...) in schedule order, across all event kinds.
using TimerId = std::uint64_t;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Simulation-wide RNG; every stochastic decision in a run flows through
  /// it so that the run is a pure function of the seed.
  util::Rng& rng() noexcept { return rng_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0).
  TimerId schedule(Time delay, std::function<void()> fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  TimerId scheduleAt(Time when, std::function<void()> fn);

  /// Schedules delivery of `message` to `receiver` (the physical instance
  /// behind id `to`) at now() + delay; it runs Network::deliver.
  TimerId scheduleDelivery(Time delay, Network* network, util::NodeId from,
                           util::NodeId to, Node* receiver,
                           MessagePtr message);

  /// Schedules `fn` at now() + delay on behalf of `node`; it runs only if
  /// the node is alive and still in incarnation `armedBy`.
  TimerId scheduleTimer(Time delay, Node* node, std::uint64_t armedBy,
                        std::function<void()> fn);

  /// Cancels a pending event in O(1) and releases its payload (callback
  /// captures, message) at once. An id that already fired, was already
  /// cancelled, or was never issued is a no-op, so pendingEvents() stays
  /// exact whatever ids callers pass.
  void cancel(TimerId id);

  /// Executes the next pending event. Returns false if the queue is empty.
  bool step();

  /// Runs events with timestamp <= deadline; leaves now() == deadline.
  void runUntil(Time deadline);

  /// Runs until the queue drains or maxEvents have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t maxEvents = SIZE_MAX);

  /// Events scheduled and neither fired nor cancelled.
  std::size_t pendingEvents() const noexcept { return live_; }
  std::uint64_t executedEvents() const noexcept { return executed_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  enum class Kind : std::uint8_t { kCall, kDeliver, kTimer };

  /// (when, id) packed into one integer, so the heap orders entries with a
  /// single compare the compiler can make branch-free.
  using Key = unsigned __int128;

  /// Heap entry. The slot holds the payload; the entry is dead once the
  /// slot no longer carries `id` (the event was cancelled, the slot maybe
  /// reused).
  struct Entry {
    Time when;
    TimerId id;
    std::uint32_t slot;

    Key key() const noexcept {
      // Flipping the sign bit maps signed time order onto unsigned order.
      const auto time = static_cast<std::uint64_t>(when) ^ (1ULL << 63);
      return (static_cast<Key>(time) << 64) | id;
    }
  };

  /// Payload of one pending event. `id` is 0 while the slot is free. `next`
  /// chains live slots of one id bucket, or free slots.
  struct Slot {
    TimerId id = 0;
    std::uint32_t next = kNoSlot;
    Kind kind = Kind::kCall;
    std::function<void()> fn;  // kCall, kTimer
    Node* node = nullptr;      // kTimer: owner; kDeliver: receiver
    std::uint64_t armedBy = 0;  // kTimer
    Network* network = nullptr;  // kDeliver
    util::NodeId from = 0;       // kDeliver
    util::NodeId to = 0;         // kDeliver
    MessagePtr message;          // kDeliver
  };

  /// Issues the next id at `when` and returns its (empty) slot.
  Slot& push(Time when, Kind kind);
  /// Unlinks a live slot from its id bucket and puts it on the free list.
  void release(std::uint32_t index);
  /// Drops dead entries from the heap top; false if no live event is left.
  bool peekLive();
  /// Pops the (live) heap top and runs it.
  void fireTop();

  void popTop() noexcept;
  void siftDown(std::size_t hole, Entry entry) noexcept;
  void rebuildHeap();

  std::uint32_t& bucketOf(TimerId id) noexcept {
    return buckets_[id & (buckets_.size() - 1)];
  }
  Slot& slotAt(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }

  /// Slots live in fixed chunks that never move, so growing the table
  /// neither relocates pending payloads nor invalidates references.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Time now_ = 0;
  TimerId nextId_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slotCount_ = 0;
  /// id -> live slot, chained through Slot::next; the size is a power of
  /// two no smaller than slotCount_.
  std::vector<std::uint32_t> buckets_;
  std::uint32_t freeSlots_ = kNoSlot;
  util::Rng rng_;
};

}  // namespace avd::sim
