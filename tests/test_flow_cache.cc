// Tests for the flow-aware classification cache (code/flow_cache.h):
// analytic hit ratios per scheme, stale invalidation, and the cost model.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "code/flow_cache.h"
#include "harness/fleet.h"
#include "net/world.h"
#include "protocols/stack_code.h"

namespace l96 {
namespace {

using code::FlowCache;
using code::FlowCacheCosts;
using code::FlowCacheScheme;
using code::FlowKeySpec;

// Frames are {flow_id, 0x45}: byte 0 keys the flow, byte 1 satisfies the
// classifier (every flow takes the same path — many flows, one path, the
// demux structure the cache exists for).
FlowKeySpec test_spec() { return {{{.offset = 0, .size = 1}}}; }

code::PacketClassifier test_classifier() {
  code::PacketClassifier c;
  c.add_path("decoy", 1,
             {{.offset = 1, .size = 1, .mask = 0xFF, .value = 0x99}});
  c.add_path("input", 2,
             {{.offset = 1, .size = 1, .mask = 0xFF, .value = 0x45}});
  return c;
}

std::vector<std::uint8_t> flow_frame(std::uint8_t flow) {
  return {flow, 0x45};
}

TEST(FlowKeySpec, FrameExtractionMatchesExplicitValues) {
  const FlowKeySpec spec{{{.offset = 0, .size = 1}, {.offset = 2, .size = 2}}};
  const std::vector<std::uint8_t> frame = {0xAA, 0x00, 0xBB, 0xCC};
  const auto key = spec.key_of(frame);
  ASSERT_TRUE(key.has_value());
  const std::uint32_t vals[] = {0xAA, 0xBBCC};
  EXPECT_EQ(*key, spec.key_of_values(vals));
  // Values are truncated to the field width, mirroring extraction.
  const std::uint32_t wide[] = {0x1AA, 0xBBCC};
  EXPECT_EQ(*key, spec.key_of_values(wide));
}

TEST(FlowKeySpec, TcpIpSpecMatchesHostInvalidationTuple) {
  // The server-side invalidation path builds the key from the connection
  // tuple (remote ip, remote port, local port); an inbound frame's fields
  // (src ip @26, src port @34, dst port @36) must produce the same key.
  const FlowKeySpec spec = proto::tcpip_flow_key_spec();
  std::vector<std::uint8_t> frame(64, 0);
  frame[26] = 10; frame[27] = 0; frame[28] = 0; frame[29] = 1;   // 10.0.0.1
  frame[34] = 0x27; frame[35] = 0x11;                            // 10001
  frame[36] = 0x1B; frame[37] = 0x58;                            // 7000
  const auto key = spec.key_of(frame);
  ASSERT_TRUE(key.has_value());
  const std::uint32_t tuple[] = {0x0A000001u, 10001u, 7000u};
  EXPECT_EQ(*key, spec.key_of_values(tuple));
}

TEST(FlowCache, ShortFrameBypassesCache) {
  auto classifier = test_classifier();
  FlowCache cache({{{.offset = 5, .size = 2}}}, FlowCacheScheme::kLru, 4);
  const std::vector<std::uint8_t> shorty = {0x01, 0x45};
  const auto r = cache.lookup(classifier, shorty);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.stats().unkeyed, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(FlowCache, OneBehindPingPongIsTheWorstCase) {
  // Jain's one-behind cache holds exactly the previous flow: a strict
  // A,B,A,B alternation never hits — the analytic worst case.
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kOneBehind, /*capacity=*/8);
  EXPECT_EQ(cache.capacity(), 1u);  // scheme forces a single entry
  for (int i = 0; i < 50; ++i) {
    cache.lookup(classifier, flow_frame(i % 2 == 0 ? 0xA : 0xB));
  }
  EXPECT_EQ(cache.stats().lookups, 50u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 50u);

  // And a single-flow run is its best case: every lookup after the first.
  cache.reset_stats();
  cache.clear();
  for (int i = 0; i < 50; ++i) cache.lookup(classifier, flow_frame(0xA));
  EXPECT_EQ(cache.stats().hits, 49u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FlowCache, DirectMappedConflictPairThrashes) {
  auto classifier = test_classifier();
  const FlowKeySpec spec = test_spec();
  FlowCache cache(spec, FlowCacheScheme::kDirectMapped, /*capacity=*/4);

  // Find two flows that collide in one slot and one that does not.
  const std::size_t slot_a = cache.slot_of(spec.key_of(flow_frame(0))
                                               .value());
  std::uint8_t conflict = 0, free_flow = 0;
  for (std::uint8_t f = 1; f != 0; ++f) {
    const std::size_t s = cache.slot_of(spec.key_of(flow_frame(f)).value());
    if (s == slot_a && conflict == 0) conflict = f;
    if (s != slot_a && free_flow == 0) free_flow = f;
    if (conflict != 0 && free_flow != 0) break;
  }
  ASSERT_NE(conflict, 0);
  ASSERT_NE(free_flow, 0);

  // Conflict pair alternating: both map to one slot, zero hits.
  for (int i = 0; i < 40; ++i) {
    cache.lookup(classifier, flow_frame(i % 2 == 0 ? 0 : conflict));
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 40u);

  // Non-conflicting pair: one compulsory miss each, hits thereafter — the
  // same access pattern, so the loss above is purely the slot conflict.
  cache.clear();
  cache.reset_stats();
  for (int i = 0; i < 40; ++i) {
    cache.lookup(classifier, flow_frame(i % 2 == 0 ? 0 : free_flow));
  }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 38u);
}

TEST(FlowCache, LruEvictsLeastRecentlyUsed) {
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kLru, /*capacity=*/2);
  cache.lookup(classifier, flow_frame(0xA));  // miss
  cache.lookup(classifier, flow_frame(0xB));  // miss
  cache.lookup(classifier, flow_frame(0xA));  // hit; B is now LRU
  cache.lookup(classifier, flow_frame(0xC));  // miss, evicts B
  EXPECT_TRUE(cache.lookup(classifier, flow_frame(0xA)).cache_hit);
  EXPECT_FALSE(cache.lookup(classifier, flow_frame(0xB)).cache_hit);
}

TEST(FlowCache, SchemeOrderingUnderZipf) {
  // Jain's ordering on one deterministic Zipf(1.2) stream over 16 flows
  // with 4-entry caches: LRU >= direct-mapped >= one-behind.
  auto classifier = test_classifier();
  const auto ratio = [&](FlowCacheScheme scheme) {
    FlowCache cache(test_spec(), scheme, /*capacity=*/4);
    harness::ZipfSampler zipf(16, 1.2, /*seed=*/7);
    for (int i = 0; i < 2000; ++i) {
      cache.lookup(classifier,
                   flow_frame(static_cast<std::uint8_t>(zipf.next())));
    }
    return cache.stats().hit_ratio();
  };
  const double ob = ratio(FlowCacheScheme::kOneBehind);
  const double dm = ratio(FlowCacheScheme::kDirectMapped);
  const double lru = ratio(FlowCacheScheme::kLru);
  EXPECT_GE(lru, dm);
  EXPECT_GE(dm, ob);
  EXPECT_GT(lru, 0.5);  // the hot flows fit in 4 entries
  EXPECT_GT(ob, 0.0);   // back-to-back repeats of the hottest flow
}

TEST(FlowCache, StaleHitAfterInvalidationTakesSlowPathOnce) {
  auto classifier = test_classifier();
  const FlowKeySpec spec = test_spec();
  const FlowCacheCosts costs{.hit_us = 0.5, .probe_us = 1.0,
                             .per_rule_us = 2.0};
  FlowCache cache(spec, FlowCacheScheme::kLru, 4, costs);

  auto r = cache.lookup(classifier, flow_frame(0xA));
  EXPECT_FALSE(r.cache_hit);
  // Miss cost: probe + 2 rules examined (decoy's rule fails, input's hits).
  EXPECT_DOUBLE_EQ(r.cost_us, 1.0 + 2 * 2.0);
  EXPECT_EQ(r.rules_examined, 2u);

  r = cache.lookup(classifier, flow_frame(0xA));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_FALSE(r.stale);
  EXPECT_DOUBLE_EQ(r.cost_us, 0.5);
  EXPECT_EQ(r.path_id, 2);

  // Connection churn invalidates the flow; the entry stays resident.
  cache.invalidate(spec.key_of(flow_frame(0xA)).value());
  r = cache.lookup(classifier, flow_frame(0xA));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_TRUE(r.stale);  // caller must route this packet to the slow path
  EXPECT_EQ(r.path_id, 2);
  EXPECT_DOUBLE_EQ(r.cost_us, 1.0 + 2 * 2.0);  // full re-scan
  EXPECT_EQ(cache.stats().stale_hits, 1u);

  // The stale lookup refreshed the entry: the flow is clean again.
  r = cache.lookup(classifier, flow_frame(0xA));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_FALSE(r.stale);

  // Invalidating an unknown key is a no-op.
  cache.invalidate(spec.key_of(flow_frame(0x77)).value());
  EXPECT_EQ(cache.stats().stale_hits, 1u);

  // hits excludes stale hits; cost_us conserves over all lookups.
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().cost_us, 5.0 + 0.5 + 5.0 + 0.5);
}

TEST(FlowCache, ClearDropsEntriesAndInvalidationsButKeepsCounters) {
  // clear() is the crash semantics: entries and pending invalidations die
  // with the incarnation, the counters are history and survive.
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kLru, 4);
  cache.lookup(classifier, flow_frame(0xA));  // miss, memoized
  cache.lookup(classifier, flow_frame(0xA));  // hit
  cache.invalidate(test_spec().key_of(flow_frame(0xA)).value());
  cache.clear();
  const auto r = cache.lookup(classifier, flow_frame(0xA));
  EXPECT_FALSE(r.cache_hit);  // the entry died with the incarnation
  EXPECT_FALSE(r.stale);      // and so did the pending invalidation
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().stale_hits, 0u);
}

TEST(FlowCache, ServerCrashFlushesTheCacheAgainstTheDeadIncarnation) {
  // Regression: a rebooted server must not serve cached classifications
  // specialized on connections that died with the old incarnation.  The
  // reconnecting client reuses its 4-tuple, so without the crash-time
  // flush the new connection's first frame would hit the corpse's entry;
  // with it, the flow re-enters through a clean full-scan miss and no new
  // stale hit is ever recorded against the dead incarnation.
  // The flow cache sits on the path-inlining guard, so the server needs a
  // PIN image; the client config is irrelevant to the cache under test.
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Pin());
  w.server().enable_flow_cache(code::FlowCacheScheme::kLru, 8);
  w.client().set_tcp_keepalive(100'000, 50'000, 2);
  w.client().tcptest()->enable_reconnect();
  w.server().set_reboot_hook(
      [&w] { w.server().tcptest()->serve(net::World::kTcpServerPort); });
  w.start(30);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  const code::FlowCacheStats before =
      w.server().front_end().flow_cache()->stats();
  EXPECT_GT(before.hits, 0u);

  w.server().crash();
  w.server().reboot();
  ASSERT_TRUE(w.run_until_roundtrips(30, 120'000'000));
  EXPECT_GE(w.client().tcptest()->reconnects(), 1u);
  const code::FlowCacheStats after =
      w.server().front_end().flow_cache()->stats();
  EXPECT_EQ(after.stale_hits, before.stale_hits);  // zero new stale hits
  EXPECT_GT(after.misses, before.misses);  // the flush forced a clean miss
  EXPECT_GT(after.hits, before.hits);      // then the flow re-warmed
}

TEST(FlowCache, LbRemapStaleHitsExactlyOnceThenRekeys) {
  // The LB-remap scenario: flows are pinned to a backend through the
  // resolver; when a backend leaves the pool, invalidate_path() marks its
  // flows stale and each one must take the slow path exactly once, pick
  // up the new binding, and hit fresh from then on.
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kLru, /*capacity=*/8);

  int backend_of_flow = 3;  // what the "Maglev table" currently says
  std::uint64_t resolutions = 0;
  const FlowCache::PathResolver resolver = [&](code::FlowKey) {
    ++resolutions;
    return backend_of_flow;
  };

  // Warm two flows onto backend 3 and one onto backend 5.
  ASSERT_EQ(cache.lookup(classifier, flow_frame(0xA), resolver).path_id, 3);
  ASSERT_EQ(cache.lookup(classifier, flow_frame(0xB), resolver).path_id, 3);
  backend_of_flow = 5;
  ASSERT_EQ(cache.lookup(classifier, flow_frame(0xC), resolver).path_id, 5);
  EXPECT_EQ(resolutions, 3u);  // resolved once per flow, not per packet

  // Steady state: fresh hits return the pinned binding, resolver silent.
  for (int i = 0; i < 10; ++i) {
    const auto r = cache.lookup(classifier, flow_frame(0xA), resolver);
    EXPECT_TRUE(r.cache_hit);
    EXPECT_FALSE(r.stale);
    EXPECT_EQ(r.path_id, 3);
  }
  EXPECT_EQ(resolutions, 3u);

  // Backend 3 leaves the pool: exactly its two flows invalidate.
  backend_of_flow = 7;  // survivors; the rebuilt table steers here now
  EXPECT_EQ(cache.invalidate_path(3), 2u);
  EXPECT_EQ(cache.invalidate_path(3), 0u);  // idempotent

  const auto stale_a = cache.lookup(classifier, flow_frame(0xA), resolver);
  EXPECT_TRUE(stale_a.cache_hit);
  EXPECT_TRUE(stale_a.stale);     // slow path, exactly this packet
  EXPECT_EQ(stale_a.path_id, 7);  // rebound through the resolver
  EXPECT_EQ(resolutions, 4u);

  const auto fresh_a = cache.lookup(classifier, flow_frame(0xA), resolver);
  EXPECT_TRUE(fresh_a.cache_hit);
  EXPECT_FALSE(fresh_a.stale);  // re-keyed: the stale hit happened once
  EXPECT_EQ(fresh_a.path_id, 7);
  EXPECT_EQ(resolutions, 4u);

  // The unrelated flow on backend 5 never noticed the remap.
  const auto r_c = cache.lookup(classifier, flow_frame(0xC), resolver);
  EXPECT_TRUE(r_c.cache_hit);
  EXPECT_FALSE(r_c.stale);
  EXPECT_EQ(r_c.path_id, 5);
  EXPECT_EQ(cache.stats().stale_hits, 1u);  // 0xB hasn't sent yet
}

TEST(FlowCache, ResolverEmptyPoolIsNotMemoized) {
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kLru, 4);
  int backend = -1;  // pool empty
  const FlowCache::PathResolver resolver = [&](code::FlowKey) {
    return backend;
  };

  const auto r1 = cache.lookup(classifier, flow_frame(0xA), resolver);
  EXPECT_FALSE(r1.path_id.has_value());  // no backend to bind
  EXPECT_GT(r1.rules_examined, 0u);      // the scan still ran (and priced)

  // Nothing was memoized: once the pool recovers, the same flow misses
  // again and binds to the restored backend instead of a cached "none".
  backend = 2;
  const auto r2 = cache.lookup(classifier, flow_frame(0xA), resolver);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(r2.path_id, 2);
  const auto r3 = cache.lookup(classifier, flow_frame(0xA), resolver);
  EXPECT_TRUE(r3.cache_hit);
  EXPECT_EQ(r3.path_id, 2);
}

TEST(FlowCache, NegativeScansAreMemoizedAndCounted) {
  // A keyed frame matching no path is scanned once, then the nullopt
  // binding is served from the cache like any other — the DEC-TR-592
  // cache works for negative destinations too.  unmatched_scans counts
  // only the scans that actually ran and found nothing.
  auto classifier = test_classifier();
  FlowCache cache(test_spec(), FlowCacheScheme::kLru, 4);
  const std::vector<std::uint8_t> odd = {0xA, 0x00};  // byte1 matches no rule

  auto r = cache.lookup(classifier, odd);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_TRUE(r.scanned);
  EXPECT_FALSE(r.scan_matched);
  EXPECT_EQ(r.path_id, std::nullopt);
  EXPECT_EQ(cache.stats().unmatched_scans, 1u);

  r = cache.lookup(classifier, odd);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_FALSE(r.scanned);  // memoized: no re-scan of the rule table
  EXPECT_EQ(r.path_id, std::nullopt);
  EXPECT_EQ(cache.stats().unmatched_scans, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Churn invalidation forces exactly one re-scan of the negative entry,
  // after which the refreshed binding serves hits again.
  cache.invalidate(test_spec().key_of(odd).value());
  r = cache.lookup(classifier, odd);
  EXPECT_TRUE(r.stale);
  EXPECT_TRUE(r.scanned);
  EXPECT_EQ(cache.stats().unmatched_scans, 2u);
  r = cache.lookup(classifier, odd);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_FALSE(r.stale);
  EXPECT_EQ(cache.stats().unmatched_scans, 2u);

  // Matching traffic never touches the counter.
  cache.lookup(classifier, flow_frame(0xB));
  cache.lookup(classifier, flow_frame(0xB));
  EXPECT_EQ(cache.stats().unmatched_scans, 2u);
}

TEST(FlowCache, UnkeyedUnmatchedFramesRescanEveryTime) {
  // Frames too short for the key spec bypass the cache by design: every
  // lookup is a fresh scan, and every no-match scan counts.
  auto classifier = test_classifier();
  FlowCache cache({{{.offset = 5, .size = 2}}}, FlowCacheScheme::kLru, 4);
  const std::vector<std::uint8_t> shorty = {0xA, 0x00};
  for (int i = 0; i < 3; ++i) {
    const auto r = cache.lookup(classifier, shorty);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(r.scanned);
    EXPECT_FALSE(r.scan_matched);
  }
  EXPECT_EQ(cache.stats().unkeyed, 3u);
  EXPECT_EQ(cache.stats().unmatched_scans, 3u);
}

TEST(FlowCache, RejectsZeroCapacityAndParsesSchemeNames) {
  EXPECT_THROW(FlowCache(test_spec(), FlowCacheScheme::kLru, 0),
               std::invalid_argument);
  EXPECT_EQ(code::flow_cache_scheme_from_string("one-behind"),
            FlowCacheScheme::kOneBehind);
  EXPECT_EQ(code::flow_cache_scheme_from_string("direct"),
            FlowCacheScheme::kDirectMapped);
  EXPECT_EQ(code::flow_cache_scheme_from_string("lru"),
            FlowCacheScheme::kLru);
  EXPECT_EQ(code::flow_cache_scheme_from_string("bogus"), std::nullopt);
  EXPECT_STREQ(code::to_string(FlowCacheScheme::kDirectMapped), "direct");
}

TEST(FlowCacheStats, PlusEqualsCoversEveryField) {
  // Every counter is 8 bytes: a field added to FlowCacheStats changes the
  // size, failing here until operator+= (and this test) sum it too.
  static_assert(sizeof(code::FlowCacheStats) == 8 * sizeof(std::uint64_t));
  const code::FlowCacheStats a{.lookups = 1,
                               .hits = 2,
                               .misses = 3,
                               .stale_hits = 4,
                               .unkeyed = 5,
                               .rules_examined = 6,
                               .unmatched_scans = 7,
                               .cost_us = 8.5};
  code::FlowCacheStats sum = a;
  sum += a;
  EXPECT_EQ(sum.lookups, 2u);
  EXPECT_EQ(sum.hits, 4u);
  EXPECT_EQ(sum.misses, 6u);
  EXPECT_EQ(sum.stale_hits, 8u);
  EXPECT_EQ(sum.unkeyed, 10u);
  EXPECT_EQ(sum.rules_examined, 12u);
  EXPECT_EQ(sum.unmatched_scans, 14u);
  EXPECT_DOUBLE_EQ(sum.cost_us, 17.0);
}

}  // namespace
}  // namespace l96
