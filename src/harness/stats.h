// Sample statistics shared by every packet-driving row (shard, recovery,
// LB): latency percentiles, the per-row sample digest, and the JSON
// blocks the row emitters share (costs, counters, fallout, window span).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "code/flow_cache.h"
#include "harness/json.h"

namespace l96::harness {

struct BurstCostTable;
struct Fallout;
struct FleetCounts;
struct FleetSpec;
struct WindowSpan;

struct LatencyPercentiles {
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double mean = 0, max = 0;
};

/// Percentiles over a sample vector (sorts a copy).
LatencyPercentiles percentiles(std::vector<double> s);

/// {"p50", "p90", "p99", "p999", "mean", "max"}.
Json percentiles_json(const LatencyPercentiles& p);

/// The shared burst-pricing block every fleet-shaped section carries.
Json costs_json(const BurstCostTable& costs);

/// A fleet row's spec echo: label, [kind], config, scheme, connections,
/// packets, batch, zipf_s, seed, cache_capacity.
Json fleet_row_json(const FleetSpec& s, bool with_kind);

/// The counter block every fleet-shaped row prints (a shard row and each
/// of its cores, a recovery row, an LB row): the FleetCounts fields in
/// declaration order, then "cache" with every FlowCacheStats field.
/// Returns `row` for chaining.
Json& set_counts(Json& row, const FleetCounts& c);

/// A paced row's Fallout, one key per field.
Json fallout_json(const Fallout& f);

/// A paced row's window: kind (blackout|crash|drain), target, index,
/// start_us, end_us, samples_in_window; the row appends its verdicts.
Json span_json(const WindowSpan& w);

/// FNV-1a seed of every sample digest and of machine_params_key.  It is
/// the standard 64-bit offset basis 14695981039346656037 with its last
/// digit dropped.  Every published digest was computed under it, so it
/// stays; the soak fault-log hash (harness/soak.cc) uses the true basis.
inline constexpr std::uint64_t kSampleDigestSeed = 1469598103934665603ULL;

/// Mix the bytes of `v` into `h` (FNV-1a).
template <typename T>
void fnv1a_value(std::uint64_t& h, T v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(v); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

/// FNV-1a over the samples' bytes, from kSampleDigestSeed.
std::uint64_t sample_digest(const std::vector<double>& samples);

}  // namespace l96::harness
