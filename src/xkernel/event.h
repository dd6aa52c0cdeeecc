// The x-kernel event (timer) manager.
//
// Protocols register timeout handlers against virtual time in microseconds
// (TCP retransmit/persist timers, CHAN call timeouts, BLAST reassembly
// timeouts).  The World advances virtual time and due events fire in
// timestamp order; handlers may schedule or cancel further events.
//
// The queue is a binary min-heap of (fire time, id) over a slab of event
// slots with a free list, so scheduling allocates nothing once the slab has
// grown to the peak number of pending events.  An id carries its schedule
// sequence number in the high 32 bits (the tie-break, so equal fire times
// fire in schedule order) and its slot in the low 32.  cancel and
// purge_owner free the slot at once and leave the heap key behind as a
// tombstone: a key whose id no longer matches its slot's is skipped when it
// reaches the top.
//
// Failure domains: every event carries an owner id (0 = infrastructure,
// e.g. wire delivery; hosts tag their protocol timers through an
// EventPort).  A host crash purges its owner's pending events *without
// firing them* — a rebooted stack must never run a pre-crash timer.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace l96::xk {

class EventManager {
 public:
  using EventId = std::uint64_t;
  using Handler = std::function<void()>;
  static constexpr EventId kInvalid = 0;
  /// Owner id of infrastructure events (wire deliveries, harness/chaos
  /// scripts) — never purged by a host crash.
  static constexpr std::uint32_t kInfraOwner = 0;

  /// Schedule `fn` to run at absolute virtual time `fire_at_us`, tagged
  /// with `owner` (the failure domain it dies with).  Throws
  /// std::overflow_error once 2^32 - 1 events have been scheduled on this
  /// manager (the id's sequence half is used up).
  EventId schedule_at(std::uint64_t fire_at_us, Handler fn,
                      std::uint32_t owner = kInfraOwner);
  /// Schedule `fn` to run `delay_us` from now.
  EventId schedule_in(std::uint64_t delay_us, Handler fn,
                      std::uint32_t owner = kInfraOwner) {
    return schedule_at(now_ + delay_us, std::move(fn), owner);
  }

  /// Cancel a pending event.  Returns true iff the event was pending and
  /// is now removed.  Returns false when the event already fired, was
  /// already cancelled, or was purged by purge_owner — cancel-after-fire
  /// is a legal no-op (timer handlers commonly race their own
  /// cancellation).  Cancelling a *foreign* id — one this manager never
  /// issued (kInvalid, or an id never returned by schedule_*) — also
  /// returns false, but is a caller bug and trips a debug assertion.
  bool cancel(EventId id);

  /// Remove every pending event tagged with `owner` WITHOUT firing it
  /// (host crash: the stack's timers die with it).  Returns the number of
  /// events purged.  Their ids behave like already-fired ids afterwards
  /// (cancel returns false).
  std::size_t purge_owner(std::uint32_t owner);

  /// Pending events tagged with `owner` (crash accounting / tests).
  std::size_t pending_for(std::uint32_t owner) const;

  /// Advance virtual time to `t_us`, firing every due event in order.
  void advance_to(std::uint64_t t_us);
  /// Advance by a delta.
  void advance_by(std::uint64_t d_us) { advance_to(now_ + d_us); }
  /// Advance to (and fire) the next pending event, if any; returns whether
  /// an event fired.
  bool advance_to_next();

  /// Fire events in order until `pred()` holds (true), the queue runs dry
  /// (pred()'s value then), or virtual time reaches `max_us` past now
  /// (false).  `max_us == 0` means no deadline.  The predicate is a
  /// template argument so hot driving loops inline it.
  template <class Pred>
  bool run_until(Pred pred, std::uint64_t max_us) {
    const std::uint64_t deadline =
        max_us == 0 ? ~std::uint64_t{0} : now_ + max_us;
    while (!pred()) {
      if (live_ == 0) return pred();
      if (now_ >= deadline) return false;
      advance_to_next();
    }
    return true;
  }

  std::uint64_t now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return live_; }

 private:
  struct QueueKey {
    std::uint64_t when;
    EventId id;  // tie-break: schedule order (the sequence is the high half)
    friend auto operator<=>(const QueueKey&, const QueueKey&) = default;
  };
  struct Slot {
    Handler fn;
    EventId id = kInvalid;  ///< the pending event's id; kInvalid when free
    std::uint32_t owner = kInfraOwner;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  /// Pop tombstones off the top; true when a live event is left on top.
  bool settle();
  /// Free a live slot (its handler is destroyed or already moved out).
  void release(std::uint32_t slot);
  /// Rebuild the heap without tombstones once they dominate it.
  void drop_tombstones();

  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::vector<QueueKey> heap_;  ///< min-heap on (when, id), with tombstones
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free slot indices, reused LIFO
};

/// A host-owned view of the shared EventManager: every event scheduled
/// through the port is tagged with the port's owner id, so a host crash
/// can purge exactly its own timers (EventManager::purge_owner) while
/// wire deliveries and the chaos script (owner 0) keep firing.  Protocols
/// hold this through ProtoCtx and use the same schedule/cancel/now surface
/// the bare manager exposes.
class EventPort {
 public:
  EventPort(EventManager& manager, std::uint32_t owner)
      : manager_(manager), owner_(owner) {}

  EventManager::EventId schedule_at(std::uint64_t fire_at_us,
                                    EventManager::Handler fn) {
    return manager_.schedule_at(fire_at_us, std::move(fn), owner_);
  }
  EventManager::EventId schedule_in(std::uint64_t delay_us,
                                    EventManager::Handler fn) {
    return manager_.schedule_in(delay_us, std::move(fn), owner_);
  }
  bool cancel(EventManager::EventId id) { return manager_.cancel(id); }
  std::uint64_t now() const noexcept { return manager_.now(); }

  std::uint32_t owner() const noexcept { return owner_; }
  EventManager& manager() noexcept { return manager_; }

 private:
  EventManager& manager_;
  std::uint32_t owner_;
};

}  // namespace l96::xk
