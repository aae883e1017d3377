#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/network.h"
#include "sim/node.h"

namespace avd::sim {

namespace {

constexpr std::size_t kArity = 4;
constexpr std::size_t kMinBuckets = 64;
/// Cancelled entries stay in the heap until popped; once they outnumber
/// live ones by this slack the heap is rebuilt without them, so the heap
/// is O(pending events) however many timers are cancelled.
constexpr std::size_t kCompactSlack = 64;

}  // namespace

TimerId Simulator::scheduleAt(Time when, std::function<void()> fn) {
  Slot& slot = push(when, Kind::kCall);
  slot.fn = std::move(fn);
  return slot.id;
}

TimerId Simulator::scheduleDelivery(Time delay, Network* network,
                                    util::NodeId from, util::NodeId to,
                                    Node* receiver, MessagePtr message) {
  Slot& slot = push(now_ + delay, Kind::kDeliver);
  slot.network = network;
  slot.from = from;
  slot.to = to;
  slot.node = receiver;
  slot.message = std::move(message);
  return slot.id;
}

TimerId Simulator::scheduleTimer(Time delay, Node* node, std::uint64_t armedBy,
                                 std::function<void()> fn) {
  Slot& slot = push(now_ + delay, Kind::kTimer);
  slot.node = node;
  slot.armedBy = armedBy;
  slot.fn = std::move(fn);
  return slot.id;
}

Simulator::Slot& Simulator::push(Time when, Kind kind) {
  assert(when >= now_ && "cannot schedule into the past");
  std::uint32_t index = freeSlots_;
  if (index != kNoSlot) {
    freeSlots_ = slotAt(index).next;
  } else {
    index = slotCount_++;
    if (index % kChunkSize == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    if (slotCount_ > buckets_.size()) {
      // Grow the id buckets with the slot table and re-chain live slots
      // (free slots have id 0 and keep their free-list links).
      buckets_.assign(std::max(kMinBuckets, 2 * buckets_.size()), kNoSlot);
      for (std::uint32_t i = 0; i < index; ++i) {
        if (slotAt(i).id == 0) continue;
        std::uint32_t& head = bucketOf(slotAt(i).id);
        slotAt(i).next = head;
        head = i;
      }
    }
  }

  const TimerId id = nextId_++;
  Slot& slot = slotAt(index);
  slot.id = id;
  slot.kind = kind;
  std::uint32_t& head = bucketOf(id);
  slot.next = head;
  head = index;
  ++live_;

  const Entry entry{when, id, index};
  const Key key = entry.key();
  std::size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (heap_[parent].key() < key) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
  return slot;
}

void Simulator::release(std::uint32_t index) {
  Slot& slot = slotAt(index);
  std::uint32_t* link = &bucketOf(slot.id);
  while (*link != index) link = &slotAt(*link).next;
  *link = slot.next;
  slot.id = 0;
  slot.next = freeSlots_;
  freeSlots_ = index;
  --live_;
}

void Simulator::cancel(TimerId id) {
  if (id == 0 || id >= nextId_) return;
  for (std::uint32_t index = bucketOf(id); index != kNoSlot;
       index = slotAt(index).next) {
    Slot& slot = slotAt(index);
    if (slot.id != id) continue;
    // Destroyed on return, after the slot is consistent again, in case a
    // capture's destructor re-enters the simulator.
    const std::function<void()> fn = std::exchange(slot.fn, nullptr);
    const MessagePtr message = std::move(slot.message);
    release(index);
    if (heap_.size() > 2 * live_ + kCompactSlack) rebuildHeap();
    return;
  }
}

void Simulator::siftDown(std::size_t hole, Entry entry) noexcept {
  const std::size_t size = heap_.size();
  const Key key = entry.key();
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t best = first;
    Key bestKey = heap_[first].key();
    for (std::size_t child = first + 1; child < last; ++child) {
      const Key childKey = heap_[child].key();
      const bool earlier = childKey < bestKey;
      best = earlier ? child : best;
      bestKey = earlier ? childKey : bestKey;
    }
    if (key < bestKey) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = entry;
}

void Simulator::rebuildHeap() {
  std::erase_if(heap_, [this](const Entry& entry) {
    return slotAt(entry.slot).id != entry.id;
  });
  // (when, id) is a total order, so the rebuilt heap pops in the same
  // order the old one would have.
  for (std::size_t i = heap_.size(); i-- > 0;) siftDown(i, heap_[i]);
}

bool Simulator::peekLive() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slotAt(top.slot).id == top.id) return true;
    popTop();
  }
  return false;
}

void Simulator::popTop() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0, last);
}

void Simulator::fireTop() {
  const Entry top = heap_.front();
  popTop();

  // Move the payload out and free the slot before running it: the callback
  // may schedule (reusing the slot) or cancel its own, now fired, id.
  Slot& slot = slotAt(top.slot);
  const Kind kind = slot.kind;
  Node* const node = slot.node;
  now_ = top.when;
  ++executed_;
  if (kind == Kind::kDeliver) {
    Network* const network = slot.network;
    const util::NodeId from = slot.from;
    const util::NodeId to = slot.to;
    MessagePtr message = std::move(slot.message);
    release(top.slot);
    network->deliver(from, to, node, std::move(message));
    return;
  }
  const std::uint64_t armedBy = slot.armedBy;
  const std::function<void()> fn = std::exchange(slot.fn, nullptr);
  release(top.slot);
  if (kind == Kind::kTimer &&
      (!node->alive() || node->incarnation() != armedBy)) {
    return;
  }
  fn();
}

bool Simulator::step() {
  if (!peekLive()) return false;
  fireTop();
  return true;
}

void Simulator::runUntil(Time deadline) {
  while (peekLive() && heap_.front().when <= deadline) fireTop();
  now_ = deadline;
}

std::size_t Simulator::run(std::size_t maxEvents) {
  std::size_t executed = 0;
  while (executed < maxEvents && step()) ++executed;
  return executed;
}

}  // namespace avd::sim
