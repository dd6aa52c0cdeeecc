#include "xkernel/event.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace l96::xk {

namespace {

/// Heap order: std::*_heap build max-heaps, so compare with > for a
/// min-heap on (when, id).
constexpr std::greater<> kLater{};

/// Cancellations leave tombstones in the heap; rebuild it without them
/// once they outnumber the live events by this much (amortized O(1) per
/// cancel, and the heap stays within about twice the pending count).
constexpr std::size_t kTombstoneSlack = 64;

}  // namespace

EventManager::EventId EventManager::schedule_at(std::uint64_t fire_at_us,
                                                Handler fn,
                                                std::uint32_t owner) {
  if (fire_at_us < now_) fire_at_us = now_;
  if ((next_seq_ >> 32) != 0) {
    throw std::overflow_error("EventManager: event sequence space exhausted");
  }
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const EventId id = (next_seq_++ << 32) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;
  s.owner = owner;
  heap_.push_back({fire_at_us, id});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  ++live_;
  return id;
}

void EventManager::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.id = kInvalid;
  free_.push_back(slot);
  --live_;
}

void EventManager::drop_tombstones() {
  if (heap_.size() <= 2 * live_ + kTombstoneSlack) return;
  std::erase_if(heap_, [this](const QueueKey& k) {
    return slots_[slot_of(k.id)].id != k.id;
  });
  std::make_heap(heap_.begin(), heap_.end(), kLater);
}

bool EventManager::settle() {
  while (!heap_.empty() &&
         slots_[slot_of(heap_.front().id)].id != heap_.front().id) {
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
  }
  return !heap_.empty();
}

bool EventManager::cancel(EventId id) {
  // A foreign id (never issued by this manager) is a caller bug: fail the
  // debug build loudly, report "not pending" in release.
  assert((id >> 32) != 0 && (id >> 32) < next_seq_ &&
         slot_of(id) < slots_.size() &&
         "EventManager::cancel: foreign event id");
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].id != id) {
    return false;  // already fired / cancelled / purged
  }
  release(slot);
  drop_tombstones();
  return true;
}

std::size_t EventManager::purge_owner(std::uint32_t owner) {
  std::size_t purged = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id != kInvalid && slots_[slot].owner == owner) {
      release(slot);
      ++purged;
    }
  }
  drop_tombstones();
  return purged;
}

std::size_t EventManager::pending_for(std::uint32_t owner) const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [owner](const Slot& s) {
        return s.id != kInvalid && s.owner == owner;
      }));
}

void EventManager::advance_to(std::uint64_t t_us) {
  while (settle() && heap_.front().when <= t_us) {
    const QueueKey top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
    now_ = top.when;
    Handler fn = std::move(slots_[slot_of(top.id)].fn);
    release(slot_of(top.id));
    fn();  // may schedule, cancel, or purge further events
  }
  if (t_us > now_) now_ = t_us;
}

bool EventManager::advance_to_next() {
  if (!settle()) return false;
  advance_to(heap_.front().when);
  return true;
}

}  // namespace l96::xk
