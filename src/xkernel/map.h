// The x-kernel map manager: fixed-key hash table used for demultiplexing.
//
// Two features from the paper are implemented faithfully:
//
//  * A one-entry cache (Section 2.2.3): the most recently resolved entry is
//    checked before hashing, exploiting packet-train locality.  The paper's
//    "conditional inlining" makes the cache *test* three times cheaper than
//    the general lookup; the code model charges instruction counts
//    accordingly, while this class provides the functional behaviour and
//    hit-rate statistics.
//
//  * A lazily-maintained list of non-empty buckets (Section 2.2.1): the
//    table can be traversed by walking only its non-empty buckets, so TCP
//    needs no separate list of open connections.  Removal never touches the
//    list; a bucket that became empty is unlinked the next time a traversal
//    walks past it, which is exactly when the previous non-empty bucket is
//    known.  Traversal cost is therefore proportional to the number of
//    non-empty buckets (plus deferred cleanup), not to the table size.
//
// Entries and buckets carry simulated addresses so lookups can be traced
// into the d-cache model.  The host-side entries live in one contiguous
// pool linked by 32-bit indices, with unbound entries on a free list, so a
// bind allocates nothing once the pool has grown to the peak population;
// the simulated addresses still come from the SimAlloc arena one entry at
// a time, in bind/unbind order.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "xkernel/simalloc.h"

namespace l96::xk {

struct MapKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const MapKey&, const MapKey&) = default;
};

struct MapStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t binds = 0;
  std::uint64_t unbinds = 0;
  std::uint64_t traversals = 0;
  std::uint64_t buckets_walked = 0;  ///< list nodes touched during traversals
  std::uint64_t lazy_unlinks = 0;    ///< empty buckets removed during traversal
};

template <typename V>
class Map {
 public:
  /// `nbuckets` must be a power of two.
  Map(SimAlloc& arena, std::size_t nbuckets, bool one_entry_cache = true)
      : arena_(arena), cache_enabled_(one_entry_cache) {
    if (nbuckets == 0 || (nbuckets & (nbuckets - 1)) != 0) {
      throw std::invalid_argument("map buckets must be a power of two");
    }
    buckets_.resize(nbuckets);
    for (auto& b : buckets_) b.sim = arena_.alloc(kBucketBytes);
  }

  ~Map() {
    for (auto& b : buckets_) {
      for (std::uint32_t e = b.head; e != kNil; e = entries_[e].next) {
        arena_.free(entries_[e].sim, kEntryBytes);
      }
      arena_.free(b.sim, kBucketBytes);
    }
  }

  Map(const Map&) = delete;
  Map& operator=(const Map&) = delete;

  /// Insert or overwrite a binding.
  void bind(const MapKey& key, V value) {
    ++stats_.binds;
    const std::size_t i = index(key);
    for (std::uint32_t e = buckets_[i].head; e != kNil;
         e = entries_[e].next) {
      if (entries_[e].key == key) {
        entries_[e].value = std::move(value);
        return;
      }
    }
    insert(i, key, std::move(value));
  }

  /// Resolve a key.  Simulated addresses touched during the lookup are
  /// appended to `touched` when provided (one-entry cache probe, bucket
  /// head, chain entries).
  std::optional<V> resolve(const MapKey& key,
                           std::vector<SimAddr>* touched = nullptr) {
    ++stats_.lookups;
    if (cache_enabled_ && cache_ != kNil) {
      const Entry& c = entries_[cache_];
      if (touched != nullptr) touched->push_back(c.sim);
      if (c.key == key) {
        ++stats_.cache_hits;
        return c.value;
      }
    }
    const Bucket& b = buckets_[index(key)];
    if (touched != nullptr) touched->push_back(b.sim);
    for (std::uint32_t e = b.head; e != kNil; e = entries_[e].next) {
      const Entry& entry = entries_[e];
      if (touched != nullptr) touched->push_back(entry.sim);
      if (entry.key == key) {
        cache_ = e;
        return entry.value;
      }
    }
    return std::nullopt;
  }

  /// Remove a binding; returns true when it existed.  The non-empty bucket
  /// list is deliberately NOT updated (lazy removal).
  bool unbind(const MapKey& key) {
    ++stats_.unbinds;
    assert(!walking_ && "Map::unbind during for_each");
    std::uint32_t* link = &buckets_[index(key)].head;
    while (*link != kNil) {
      const std::uint32_t e = *link;
      Entry& entry = entries_[e];
      if (entry.key == key) {
        *link = entry.next;
        if (cache_ == e) cache_ = kNil;
        arena_.free(entry.sim, kEntryBytes);
        entry.value = V{};
        entry.next = free_head_;
        free_head_ = e;
        --size_;
        return true;
      }
      link = &entry.next;
    }
    return false;
  }

  /// Visit every live binding by walking the non-empty bucket list,
  /// unlinking buckets found empty along the way (this is where the lazy
  /// removals are collected — trivial because the previous list node is at
  /// hand).
  void for_each(const std::function<void(const MapKey&, V&)>& fn) {
    ++stats_.traversals;
    walking_ = true;
    const struct Done {
      bool& flag;
      ~Done() { flag = false; }
    } done{walking_};
    int* link = &nonempty_head_;
    while (*link != -1) {
      ++stats_.buckets_walked;
      Bucket& b = buckets_[static_cast<std::size_t>(*link)];
      if (b.head == kNil) {
        b.on_list = false;
        *link = b.next_nonempty;
        b.next_nonempty = -1;
        ++stats_.lazy_unlinks;
        continue;
      }
      for (std::uint32_t e = b.head; e != kNil; e = entries_[e].next) {
        fn(entries_[e].key, entries_[e].value);
      }
      link = &b.next_nonempty;
    }
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Non-empty-list length including not-yet-unlinked empty buckets.
  std::size_t list_length() const noexcept {
    std::size_t n = 0;
    for (int i = nonempty_head_; i != -1;
         i = buckets_[static_cast<std::size_t>(i)].next_nonempty) {
      ++n;
    }
    return n;
  }

  const MapStats& stats() const noexcept { return stats_; }
  bool cache_enabled() const noexcept { return cache_enabled_; }

  /// Simulated address of the one-entry cache slot (the inlined cache test
  /// loads this first).
  SimAddr cache_slot_sim() const noexcept {
    return cache_ != kNil ? entries_[cache_].sim : buckets_.front().sim;
  }

 private:
  /// Pool index meaning "no entry" (end of chain, empty cache, empty free
  /// list).
  static constexpr std::uint32_t kNil = 0xFFFF'FFFF;

  struct Entry {
    MapKey key;
    V value;
    std::uint32_t next;  ///< chain link, or free-list link once unbound
    SimAddr sim;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    int next_nonempty = -1;
    bool on_list = false;
    SimAddr sim = 0;
  };

  /// Bind a new entry at the head of bucket i's chain.  Out of line on
  /// purpose: inlined into bind(), the compiler loads the caller's key as
  /// one 16-byte vector for both paths, which stalls on store forwarding
  /// when the caller has just written the key (an overwriting bind then
  /// costs twice as much).
  [[gnu::noinline]] void insert(std::size_t i, const MapKey& key, V value) {
    // A new entry may grow the pool, which would invalidate the V& a
    // traversal is handing out.
    assert(!walking_ && "Map::bind: new binding during for_each");
    Bucket& b = buckets_[i];
    Entry fresh{key, std::move(value), b.head, arena_.alloc(kEntryBytes)};
    std::uint32_t e = free_head_;
    if (e != kNil) {
      free_head_ = entries_[e].next;
      entries_[e] = std::move(fresh);
    } else {
      if (entries_.size() >= kNil) throw std::length_error("map pool full");
      e = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(std::move(fresh));
    }
    const bool was_empty = (b.head == kNil);
    b.head = e;
    ++size_;
    if (was_empty && !b.on_list) {
      b.on_list = true;
      b.next_nonempty = nonempty_head_;
      nonempty_head_ = static_cast<int>(i);
    }
  }

  static constexpr std::uint64_t kEntryBytes = 48;
  static constexpr std::uint64_t kBucketBytes = 16;  // head + list pointer

  std::size_t index(const MapKey& key) const noexcept {
    std::uint64_t h = key.hi * 0x9E3779B97F4A7C15ULL;
    h ^= key.lo + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h & (buckets_.size() - 1));
  }

  SimAlloc& arena_;
  bool cache_enabled_;
  std::vector<Bucket> buckets_;
  int nonempty_head_ = -1;
  /// Every entry ever created, live or on the free list; chains link by
  /// index, so the pool may reallocate as it grows.
  std::vector<Entry> entries_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t cache_ = kNil;
  std::size_t size_ = 0;
  bool walking_ = false;  ///< inside for_each: bind/unbind must wait
  MapStats stats_;
};

}  // namespace l96::xk
