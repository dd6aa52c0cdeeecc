// Tests for the map manager: one-entry cache, lazy non-empty-bucket list.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "xkernel/map.h"

namespace l96::xk {
namespace {

MapKey k(std::uint64_t v) { return MapKey{.hi = v * 7919, .lo = v}; }

class MapTest : public ::testing::Test {
 protected:
  SimAlloc arena;
};

TEST_F(MapTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW((Map<int>(arena, 10)), std::invalid_argument);
  EXPECT_THROW((Map<int>(arena, 0)), std::invalid_argument);
}

TEST_F(MapTest, BindResolveUnbind) {
  Map<int> m(arena, 16);
  m.bind(k(1), 100);
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100);
  EXPECT_FALSE(m.resolve(k(2)).has_value());
  EXPECT_TRUE(m.unbind(k(1)));
  EXPECT_FALSE(m.unbind(k(1)));
  EXPECT_FALSE(m.resolve(k(1)).has_value());
}

TEST_F(MapTest, BindOverwrites) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(1), 2);
  EXPECT_EQ(*m.resolve(k(1)), 2);
  EXPECT_EQ(m.size(), 1u);
}

TEST_F(MapTest, OneEntryCacheHitsOnRepeat) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(2), 2);
  m.resolve(k(1));
  const auto hits_before = m.stats().cache_hits;
  m.resolve(k(1));
  m.resolve(k(1));
  EXPECT_EQ(m.stats().cache_hits, hits_before + 2);
}

TEST_F(MapTest, CacheInvalidatedByUnbind) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.resolve(k(1));  // caches the entry
  m.unbind(k(1));
  EXPECT_FALSE(m.resolve(k(1)).has_value());  // must not hit a stale cache
}

TEST_F(MapTest, RebindAfterUnbindNeverServesStaleValue) {
  // The dangerous sequence: resolve caches entry E for key K, K is unbound
  // (E freed), K is re-bound to a NEW entry.  The cache must have been
  // cleared at unbind time — a dangling E here would be use-after-free.
  Map<int> m(arena, 16);
  m.bind(k(1), 10);
  ASSERT_EQ(*m.resolve(k(1)), 10);  // cache now points at the entry
  ASSERT_TRUE(m.unbind(k(1)));
  m.bind(k(1), 20);
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 20);
  // And the fresh entry is itself cached now.
  const auto hits = m.stats().cache_hits;
  EXPECT_EQ(*m.resolve(k(1)), 20);
  EXPECT_EQ(m.stats().cache_hits, hits + 1);
}

TEST_F(MapTest, OverwriteBindUpdatesValueSeenThroughCache) {
  // bind() of an existing key overwrites the entry in place; a cached
  // pointer to that entry must observe the new value.
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.resolve(k(1));  // cache points at the entry
  m.bind(k(1), 2);  // in-place overwrite
  auto v = m.resolve(k(1));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2);
}

TEST_F(MapTest, UnbindOfOtherKeyKeepsCacheValid) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.bind(k(2), 2);
  m.resolve(k(1));  // cache -> k(1)'s entry
  ASSERT_TRUE(m.unbind(k(2)));
  const auto hits = m.stats().cache_hits;
  EXPECT_EQ(*m.resolve(k(1)), 1);
  EXPECT_EQ(m.stats().cache_hits, hits + 1);  // still a cache hit
}

TEST_F(MapTest, UnbindRebindChurnNeverGoesStale) {
  // Packet-train pattern with connection churn: repeated resolve/unbind/
  // rebind of the same key must always see the current binding.
  Map<int> m(arena, 16);
  for (int round = 0; round < 100; ++round) {
    m.bind(k(7), round);
    ASSERT_EQ(*m.resolve(k(7)), round) << round;
    ASSERT_EQ(*m.resolve(k(7)), round) << round;  // cached path
    ASSERT_TRUE(m.unbind(k(7)));
    ASSERT_FALSE(m.resolve(k(7)).has_value()) << round;
  }
  EXPECT_EQ(m.size(), 0u);
}

TEST_F(MapTest, CacheDisabled) {
  Map<int> m(arena, 16, /*one_entry_cache=*/false);
  m.bind(k(1), 1);
  m.resolve(k(1));
  m.resolve(k(1));
  EXPECT_EQ(m.stats().cache_hits, 0u);
}

TEST_F(MapTest, TouchedAddressesReported) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  std::vector<SimAddr> touched;
  m.resolve(k(1), &touched);
  EXPECT_FALSE(touched.empty());
  // Second lookup hits the one-entry cache: exactly one probe address.
  touched.clear();
  m.resolve(k(1), &touched);
  EXPECT_EQ(touched.size(), 1u);
}

TEST_F(MapTest, TraversalVisitsAllLive) {
  Map<int> m(arena, 64);
  std::set<std::uint64_t> expect;
  for (std::uint64_t i = 0; i < 20; ++i) {
    m.bind(k(i), static_cast<int>(i));
    expect.insert(i);
  }
  std::set<std::uint64_t> seen;
  m.for_each([&](const MapKey& key, int&) { seen.insert(key.lo); });
  EXPECT_EQ(seen, expect);
}

TEST_F(MapTest, LazyUnlinkCollectsEmptyBuckets) {
  Map<int> m(arena, 64);
  for (std::uint64_t i = 0; i < 16; ++i) m.bind(k(i), 1);
  const std::size_t full_list = m.list_length();
  // Remove most elements: the list does NOT shrink yet (lazy).
  for (std::uint64_t i = 0; i < 14; ++i) m.unbind(k(i));
  EXPECT_EQ(m.list_length(), full_list);
  // Traversal cleans it up.
  m.for_each([](const MapKey&, int&) {});
  EXPECT_LE(m.list_length(), 2u + 1u);
  EXPECT_GT(m.stats().lazy_unlinks, 0u);
}

TEST_F(MapTest, RebindAfterLazyEmptyDoesNotDuplicateListNode) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  m.unbind(k(1));       // bucket empty but still on the list
  m.bind(k(1), 2);      // must not be added twice
  std::size_t visits = 0;
  m.for_each([&](const MapKey&, int&) { ++visits; });
  EXPECT_EQ(visits, 1u);
  m.for_each([&](const MapKey&, int&) {});  // stable after cleanup
  EXPECT_EQ(m.list_length(), 1u);
}

TEST_F(MapTest, TraversalCostTracksOccupancyNotTableSize) {
  // The paper: traversal cost is proportional to the non-empty-bucket list,
  // not the bucket count (the whole point of the lazy list).
  Map<int> big(arena, 1024);
  for (std::uint64_t i = 0; i < 8; ++i) big.bind(k(i), 1);
  big.for_each([](const MapKey&, int&) {});
  const auto walked = big.stats().buckets_walked;
  EXPECT_LE(walked, 8u);  // far fewer than 1024 buckets
}

TEST_F(MapTest, ChainCollisionsResolveCorrectly) {
  Map<int> m(arena, 2);  // force heavy chaining
  for (std::uint64_t i = 0; i < 32; ++i) m.bind(k(i), static_cast<int>(i));
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto v = m.resolve(k(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(m.size(), 32u);
}

// Property test: random operation sequences agree with std::map.
class MapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapFuzz, AgreesWithReference) {
  SimAlloc arena;
  Map<int> m(arena, 32);
  std::map<std::uint64_t, int> ref;
  std::uint64_t seed = GetParam();
  auto rnd = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t id = rnd() % 64;
    switch (rnd() % 4) {
      case 0:
        m.bind(k(id), static_cast<int>(id));
        ref[id] = static_cast<int>(id);
        break;
      case 1: {
        const bool a = m.unbind(k(id));
        const bool b = ref.erase(id) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      case 2: {
        auto v = m.resolve(k(id));
        auto it = ref.find(id);
        ASSERT_EQ(v.has_value(), it != ref.end());
        if (v.has_value()) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 3: {
        std::size_t n = 0;
        m.for_each([&](const MapKey&, int&) { ++n; });
        ASSERT_EQ(n, ref.size());
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapFuzz,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull,
                                           977ull, 31415926ull));

// --- The entry pool against the linked-list map it replaced ---------------

/// The per-bind-allocated linked-list map the pool replaced, kept as the
/// reference: same hash, chain order (newest first), one-entry cache, lazy
/// non-empty list, and SimAlloc traffic.
class LinkedListMapReference {
 public:
  LinkedListMapReference(SimAlloc& arena, std::size_t nbuckets)
      : arena_(arena), buckets_(nbuckets) {
    for (auto& b : buckets_) b.sim = arena_.alloc(kBucketBytes);
  }
  ~LinkedListMapReference() {
    for (auto& b : buckets_) {
      while (b.head != nullptr) {
        arena_.free(b.head->sim, kEntryBytes);
        b.head = std::move(b.head->next);
      }
      arena_.free(b.sim, kBucketBytes);
    }
  }

  void bind(const MapKey& key, int value) {
    const std::size_t i = index(key);
    Bucket& b = buckets_[i];
    for (Entry* e = b.head.get(); e != nullptr; e = e->next.get()) {
      if (e->key == key) {
        e->value = value;
        return;
      }
    }
    auto e = std::make_unique<Entry>(
        Entry{key, value, std::move(b.head), arena_.alloc(kEntryBytes)});
    b.head = std::move(e);
    if (!b.on_list) {
      b.on_list = true;
      b.next_nonempty = nonempty_head_;
      nonempty_head_ = static_cast<int>(i);
    }
  }
  std::optional<int> resolve(const MapKey& key, std::vector<SimAddr>& touched) {
    if (cache_ != nullptr) {
      touched.push_back(cache_->sim);
      if (cache_->key == key) return cache_->value;
    }
    const Bucket& b = buckets_[index(key)];
    touched.push_back(b.sim);
    for (Entry* e = b.head.get(); e != nullptr; e = e->next.get()) {
      touched.push_back(e->sim);
      if (e->key == key) {
        cache_ = e;
        return e->value;
      }
    }
    return std::nullopt;
  }
  bool unbind(const MapKey& key) {
    std::unique_ptr<Entry>* link = &buckets_[index(key)].head;
    while (*link != nullptr) {
      if ((*link)->key == key) {
        if (cache_ == link->get()) cache_ = nullptr;
        arena_.free((*link)->sim, kEntryBytes);
        *link = std::move((*link)->next);
        return true;
      }
      link = &(*link)->next;
    }
    return false;
  }
  /// (key, value, sim) of every binding in traversal order.
  std::vector<std::pair<std::uint64_t, int>> walk() {
    std::vector<std::pair<std::uint64_t, int>> out;
    int* link = &nonempty_head_;
    while (*link != -1) {
      Bucket& b = buckets_[static_cast<std::size_t>(*link)];
      if (b.head == nullptr) {
        b.on_list = false;
        *link = b.next_nonempty;
        b.next_nonempty = -1;
        continue;
      }
      for (Entry* e = b.head.get(); e != nullptr; e = e->next.get()) {
        out.emplace_back(e->key.lo, e->value);
      }
      link = &b.next_nonempty;
    }
    return out;
  }
  SimAddr cache_slot_sim() const {
    return cache_ != nullptr ? cache_->sim : buckets_.front().sim;
  }

 private:
  struct Entry {
    MapKey key;
    int value;
    std::unique_ptr<Entry> next;
    SimAddr sim;
  };
  struct Bucket {
    std::unique_ptr<Entry> head;
    int next_nonempty = -1;
    bool on_list = false;
    SimAddr sim = 0;
  };
  static constexpr std::uint64_t kEntryBytes = 48;
  static constexpr std::uint64_t kBucketBytes = 16;

  std::size_t index(const MapKey& key) const {
    std::uint64_t h = key.hi * 0x9E3779B97F4A7C15ULL;
    h ^= key.lo + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h & (buckets_.size() - 1));
  }

  SimAlloc& arena_;
  std::vector<Bucket> buckets_;
  int nonempty_head_ = -1;
  Entry* cache_ = nullptr;
};

class MapPool : public ::testing::TestWithParam<std::uint64_t> {};

// Bind/unbind churn over 8 buckets reuses freed pool slots constantly; the
// traversal order, every resolve's touched addresses (cache probe, bucket,
// chain entries) and the one-entry cache must match the linked-list map
// step for step, and both must leave the same SimAlloc traffic.
TEST_P(MapPool, MatchesLinkedListReferenceUnderChurn) {
  SimAlloc arena;
  SimAlloc ref_arena;
  Map<int> m(arena, 8);
  LinkedListMapReference ref(ref_arena, 8);
  std::uint64_t seed = GetParam();
  auto rnd = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t id = rnd() % 48;
    switch (rnd() % 5) {
      case 0:
      case 1: {
        const int value = static_cast<int>(rnd() % 1000);
        m.bind(k(id), value);
        ref.bind(k(id), value);
        break;
      }
      case 2:
        ASSERT_EQ(m.unbind(k(id)), ref.unbind(k(id))) << step;
        break;
      case 3: {
        std::vector<SimAddr> got;
        std::vector<SimAddr> want;
        const auto v = m.resolve(k(id), &got);
        ASSERT_EQ(v, ref.resolve(k(id), want)) << step;
        ASSERT_EQ(got, want) << step;
        break;
      }
      case 4: {
        std::vector<std::pair<std::uint64_t, int>> order;
        m.for_each([&](const MapKey& key, int& value) {
          order.emplace_back(key.lo, value);
        });
        ASSERT_EQ(order, ref.walk()) << step;
        break;
      }
    }
    ASSERT_EQ(m.cache_slot_sim(), ref.cache_slot_sim()) << step;
    ASSERT_EQ(arena.live_bytes(), ref_arena.live_bytes()) << step;
    ASSERT_EQ(arena.high_water(), ref_arena.high_water()) << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapPool,
                         ::testing::Values(3ull, 77ull, 0xC0FFEEull));

TEST_F(MapTest, UntracedResolveLeavesSameStatsAndCache) {
  SimAlloc other;
  Map<int> traced(arena, 16);
  Map<int> untraced(other, 16);
  std::uint64_t seed = 99;
  auto rnd = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  const auto same = [](const MapStats& a, const MapStats& b) {
    return a.lookups == b.lookups && a.cache_hits == b.cache_hits &&
           a.binds == b.binds && a.unbinds == b.unbinds &&
           a.traversals == b.traversals &&
           a.buckets_walked == b.buckets_walked &&
           a.lazy_unlinks == b.lazy_unlinks;
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t id = rnd() % 40;
    switch (rnd() % 4) {
      case 0:
        traced.bind(k(id), static_cast<int>(id));
        untraced.bind(k(id), static_cast<int>(id));
        break;
      case 1:
        traced.unbind(k(id));
        untraced.unbind(k(id));
        break;
      default: {
        std::vector<SimAddr> touched;
        ASSERT_EQ(traced.resolve(k(id), &touched),
                  untraced.resolve(k(id), nullptr));
        break;
      }
    }
    ASSERT_TRUE(same(traced.stats(), untraced.stats())) << step;
    ASSERT_EQ(traced.cache_slot_sim(), untraced.cache_slot_sim()) << step;
  }
}

TEST_F(MapTest, DestructorReturnsEverySimAddress) {
  arena.alloc(64);  // live bytes that are not the map's
  const std::uint64_t live_before = arena.live_bytes();
  {
    Map<int> m(arena, 32);
    for (std::uint64_t i = 0; i < 200; ++i) m.bind(k(i), 1);
    for (std::uint64_t i = 0; i < 200; i += 3) m.unbind(k(i));
    for (std::uint64_t i = 300; i < 340; ++i) m.bind(k(i), 2);  // reuse
    ASSERT_GT(arena.live_bytes(), live_before);
  }
  EXPECT_EQ(arena.live_bytes(), live_before);
}

TEST_F(MapTest, BindDuringTraversalIsACallerBug) {
  Map<int> m(arena, 16);
  m.bind(k(1), 1);
  // A new binding could grow the entry pool under the V& being visited.
  EXPECT_DEBUG_DEATH(
      m.for_each([&](const MapKey&, int&) { m.bind(k(2), 2); }),
      "new binding during for_each");
}

}  // namespace
}  // namespace l96::xk
