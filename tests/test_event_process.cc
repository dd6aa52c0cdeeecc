// Tests for the event (timer) manager, stack pool and semaphores.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "xkernel/event.h"
#include "xkernel/process.h"
#include "xkernel/simalloc.h"

namespace l96::xk {
namespace {

TEST(Event, FiresInTimestampOrder) {
  EventManager em;
  std::vector<int> fired;
  em.schedule_at(30, [&] { fired.push_back(3); });
  em.schedule_at(10, [&] { fired.push_back(1); });
  em.schedule_at(20, [&] { fired.push_back(2); });
  em.advance_to(25);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  em.advance_to(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Event, TieBreakIsScheduleOrder) {
  EventManager em;
  std::vector<int> fired;
  em.schedule_at(10, [&] { fired.push_back(1); });
  em.schedule_at(10, [&] { fired.push_back(2); });
  em.advance_to(10);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(Event, NowAdvancesToFireTime) {
  EventManager em;
  std::uint64_t seen = 0;
  em.schedule_at(42, [&] { seen = em.now(); });
  em.advance_to(100);
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(em.now(), 100u);
}

TEST(Event, CancelPreventsFiring) {
  EventManager em;
  bool fired = false;
  auto id = em.schedule_in(5, [&] { fired = true; });
  EXPECT_TRUE(em.cancel(id));
  EXPECT_FALSE(em.cancel(id));  // double cancel
  em.advance_by(10);
  EXPECT_FALSE(fired);
}

TEST(Event, HandlerMayScheduleMore) {
  EventManager em;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) em.schedule_in(10, tick);
  };
  em.schedule_in(10, tick);
  em.advance_to(1000);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(em.pending(), 0u);
}

TEST(Event, HandlerMayCancelAnother) {
  EventManager em;
  bool b_fired = false;
  EventManager::EventId b = 0;
  em.schedule_at(10, [&] { em.cancel(b); });
  b = em.schedule_at(20, [&] { b_fired = true; });
  em.advance_to(30);
  EXPECT_FALSE(b_fired);
}

TEST(Event, PastDeadlineClampsToNow) {
  EventManager em;
  em.advance_to(100);
  bool fired = false;
  em.schedule_at(50, [&] { fired = true; });  // in the past
  em.advance_to(100);                         // no time passes
  EXPECT_TRUE(fired);
}

TEST(Event, AdvanceToNext) {
  EventManager em;
  EXPECT_FALSE(em.advance_to_next());
  bool fired = false;
  em.schedule_at(77, [&] { fired = true; });
  EXPECT_TRUE(em.advance_to_next());
  EXPECT_TRUE(fired);
  EXPECT_EQ(em.now(), 77u);
}

// --- StackPool -----------------------------------------------------------

TEST(Event, CancelAfterFireReturnsFalse) {
  EventManager em;
  int fired = 0;
  const auto id = em.schedule_at(10, [&] { ++fired; });
  em.advance_to(20);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(em.cancel(id));  // cancel-after-fire: "not pending", no abort
  EXPECT_FALSE(em.cancel(id));  // and idempotent
}

TEST(Event, ForeignIdIsACallerBug) {
  EventManager em;
  em.schedule_at(10, [] {});
  // kInvalid and never-issued ids trip the debug assert; release reports
  // "not pending".
  EXPECT_DEBUG_DEATH(em.cancel(EventManager::kInvalid), "foreign event id");
  EXPECT_DEBUG_DEATH(em.cancel(999), "foreign event id");
}

TEST(Event, PurgeOwnerDropsWithoutFiring) {
  EventManager em;
  int infra = 0;
  int host = 0;
  em.schedule_at(10, [&] { ++infra; }, EventManager::kInfraOwner);
  const auto a = em.schedule_at(10, [&] { ++host; }, 7);
  em.schedule_at(20, [&] { ++host; }, 7);
  EXPECT_EQ(em.pending_for(7), 2u);
  EXPECT_EQ(em.purge_owner(7), 2u);
  EXPECT_EQ(em.pending_for(7), 0u);
  em.advance_to(100);
  EXPECT_EQ(infra, 1);  // other owners untouched
  EXPECT_EQ(host, 0);   // purged events never fire
  EXPECT_FALSE(em.cancel(a));  // cancel-after-purge: "not pending"
  EXPECT_EQ(em.purge_owner(7), 0u);  // purge is idempotent
}

TEST(Event, PortTagsItsOwner) {
  EventManager em;
  EventPort port(em, 3);
  int fired = 0;
  port.schedule_in(5, [&] { ++fired; });
  port.schedule_at(7, [&] { ++fired; });
  EXPECT_EQ(em.pending_for(3), 2u);
  EXPECT_EQ(em.purge_owner(3), 2u);
  em.advance_to(100);
  EXPECT_EQ(fired, 0);
}

// --- Differential check against the ordered-map queue ----------------------

/// The queue the heap replaced, kept as the reference: an ordered map keyed
/// on (fire time, schedule order) plus an id index.
class MapQueueReference {
 public:
  using EventId = std::uint64_t;
  using Handler = std::function<void()>;

  EventId schedule_at(std::uint64_t t, Handler fn, std::uint32_t owner) {
    if (t < now_) t = now_;
    const EventId id = next_id_++;
    queue_.emplace(Key{t, id}, Entry{std::move(fn), owner});
    by_id_.emplace(id, Key{t, id});
    return id;
  }
  EventId schedule_in(std::uint64_t d, Handler fn, std::uint32_t owner) {
    return schedule_at(now_ + d, std::move(fn), owner);
  }
  bool cancel(EventId id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    queue_.erase(it->second);
    by_id_.erase(it);
    return true;
  }
  std::size_t purge_owner(std::uint32_t owner) {
    std::size_t purged = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->second.owner == owner) {
        by_id_.erase(it->first.second);
        it = queue_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }
  std::size_t pending_for(std::uint32_t owner) const {
    std::size_t n = 0;
    for (const auto& [key, e] : queue_) n += e.owner == owner ? 1 : 0;
    return n;
  }
  std::size_t pending() const { return queue_.size(); }
  void advance_to(std::uint64_t t) {
    while (!queue_.empty() && queue_.begin()->first.first <= t) {
      const auto it = queue_.begin();
      now_ = it->first.first;
      Handler fn = std::move(it->second.fn);
      by_id_.erase(it->first.second);
      queue_.erase(it);
      fn();
    }
    if (t > now_) now_ = t;
  }
  bool advance_to_next() {
    if (queue_.empty()) return false;
    advance_to(queue_.begin()->first.first);
    return true;
  }
  std::uint64_t now() const { return now_; }

 private:
  using Key = std::pair<std::uint64_t, EventId>;
  struct Entry {
    Handler fn;
    std::uint32_t owner;
  };
  std::uint64_t now_ = 0;
  EventId next_id_ = 1;
  std::map<Key, Entry> queue_;
  std::map<EventId, Key> by_id_;
};

/// Drive one manager through a seeded script of schedule_at / schedule_in /
/// cancel / purge_owner / advance_to / advance_to_next, with handlers that
/// schedule (often at their own tick), cancel and purge while the queue is
/// firing.  Returns everything an observer sees: each firing (label, time),
/// every cancel / purge / advance_to_next result, and now(), pending() and
/// pending_for() of every owner after each step.
template <typename M>
std::vector<std::uint64_t> run_event_script(std::uint64_t seed) {
  constexpr std::uint32_t kOwners = 4;
  M em;
  std::vector<std::uint64_t> log;
  std::vector<typename M::EventId> ids;  // label -> this manager's id
  std::uint64_t state = seed;
  const auto rnd = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const auto any_owner = [&rnd] {
    return static_cast<std::uint32_t>(rnd() % kOwners);
  };
  std::function<void(bool, std::uint64_t)> schedule;
  const auto fire = [&](std::size_t label) {
    log.push_back(label);
    log.push_back(em.now());
    switch (rnd() % 6) {
      case 0:
      case 1:
        schedule(false, rnd() % 3 == 0 ? 0 : rnd() % 20);
        break;
      case 2:
        log.push_back(em.cancel(ids[rnd() % ids.size()]) ? 1 : 0);
        break;
      case 3:
        log.push_back(em.purge_owner(any_owner()));
        break;
      default:
        break;
    }
  };
  schedule = [&](bool absolute, std::uint64_t t) {
    const std::size_t label = ids.size();
    const std::uint32_t owner = any_owner();
    auto fn = [&fire, label] { fire(label); };
    ids.push_back(absolute ? em.schedule_at(t, fn, owner)
                           : em.schedule_in(t, fn, owner));
  };

  for (int step = 0; step < 4000; ++step) {
    switch (rnd() % 9) {
      case 0:
        schedule(false, rnd() % 100);
        break;
      case 1:  // absolute, sometimes in the past (clamped to now)
        schedule(true, (em.now() >= 10 ? em.now() - 10 : 0) + rnd() % 110);
        break;
      case 2:
        if (!ids.empty()) log.push_back(em.cancel(ids[rnd() % ids.size()]));
        break;
      case 3:
        log.push_back(em.purge_owner(any_owner()));
        break;
      case 4:
        em.advance_to(em.now() + rnd() % 30);
        break;
      case 5:
        log.push_back(em.advance_to_next() ? 1 : 0);
        break;
      case 6: {  // re-arm storm: timers cancelled before they fire
        const std::size_t first = ids.size();
        for (int i = 0; i < 40; ++i) schedule(false, 1000 + rnd() % 1000);
        for (std::size_t l = first; l + 1 < ids.size(); ++l) {
          log.push_back(em.cancel(ids[l]) ? 1 : 0);
        }
        break;
      }
      default:
        schedule(false, 0);
        break;
    }
    log.push_back(em.now());
    log.push_back(em.pending());
    for (std::uint32_t o = 0; o < kOwners; ++o) {
      log.push_back(em.pending_for(o));
    }
  }
  while (em.advance_to_next()) log.push_back(em.pending());
  return log;
}

TEST(Event, MatchesOrderedMapReferenceOnRandomScripts) {
  for (const std::uint64_t seed : {1ull, 42ull, 977ull, 0xDEADBEEFull}) {
    const auto got = run_event_script<EventManager>(seed);
    const auto want = run_event_script<MapQueueReference>(seed);
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    ASSERT_EQ(i, want.size()) << "seed " << seed << ": first divergence at "
                              << i << " of " << want.size();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  }
}

TEST(StackPool, LifoReuse) {
  SimAlloc arena;
  StackPool pool(arena, 4, 4096);
  const SimAddr s1 = pool.attach();
  pool.detach(s1);
  const SimAddr s2 = pool.attach();
  EXPECT_EQ(s1, s2);  // most recently detached comes back first
  EXPECT_EQ(pool.warm_attaches(), 2u);  // initial top counts as warm too
}

TEST(StackPool, ColdAttachAfterDifferentStack) {
  SimAlloc arena;
  StackPool pool(arena, 4, 4096);
  const SimAddr a = pool.attach();
  const SimAddr b = pool.attach();
  EXPECT_NE(a, b);
  pool.detach(a);
  pool.detach(b);
  EXPECT_EQ(pool.attach(), b);
}

TEST(StackPool, Exhaustion) {
  SimAlloc arena;
  StackPool pool(arena, 1, 1024);
  (void)pool.attach();
  EXPECT_THROW(pool.attach(), std::runtime_error);
}

// --- Semaphore -----------------------------------------------------------

TEST(Semaphore, ImmediateWhenAvailable) {
  Semaphore s(1);
  bool ran = false;
  s.p([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.count(), 0);
}

TEST(Semaphore, ParksWhenUnavailable) {
  Semaphore s(0);
  bool ran = false;
  s.p([&] { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.waiters(), 1u);
  s.v();  // direct handoff
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.count(), 0);
}

TEST(Semaphore, VWithoutWaitersIncrements) {
  Semaphore s(0);
  s.v();
  EXPECT_EQ(s.count(), 1);
  bool ran = false;
  s.p([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Semaphore, FifoHandoff) {
  Semaphore s(0);
  std::vector<int> order;
  s.p([&] { order.push_back(1); });
  s.p([&] { order.push_back(2); });
  s.v();
  s.v();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- SimAlloc ----------------------------------------------------------

TEST(SimAlloc, DeterministicSequence) {
  SimAlloc a1, a2;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a1.alloc(32 + i), a2.alloc(32 + i));
  }
}

TEST(SimAlloc, ReusesFreedChunks) {
  SimAlloc a;
  const SimAddr p = a.alloc(64);
  a.free(p, 64);
  EXPECT_EQ(a.alloc(64), p);
}

TEST(SimAlloc, AlignmentHonored) {
  SimAlloc a;
  a.alloc(3);
  const SimAddr p = a.alloc(64, 64);
  EXPECT_EQ(p % 64, 0u);
}

TEST(SimAlloc, SizeClassesSeparate) {
  SimAlloc a;
  const SimAddr small = a.alloc(16);
  a.free(small, 16);
  const SimAddr big = a.alloc(256);  // must not reuse the 16-byte chunk
  EXPECT_NE(big, small);
}

TEST(SimAlloc, Accounting) {
  SimAlloc a;
  const SimAddr p = a.alloc(100);
  EXPECT_EQ(a.alloc_count(), 1u);
  EXPECT_GT(a.live_bytes(), 0u);
  a.free(p, 100);
  EXPECT_EQ(a.free_count(), 1u);
  EXPECT_EQ(a.live_bytes(), 0u);
}

}  // namespace
}  // namespace l96::xk
