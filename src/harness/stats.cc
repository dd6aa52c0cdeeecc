#include "harness/stats.h"

#include <algorithm>

#include "harness/fleet.h"

namespace l96::harness {

LatencyPercentiles percentiles(std::vector<double> s) {
  LatencyPercentiles p;
  if (s.empty()) return p;
  std::sort(s.begin(), s.end());
  const auto at = [&](double q) {
    std::size_t i = static_cast<std::size_t>(q * static_cast<double>(s.size()));
    if (i >= s.size()) i = s.size() - 1;
    return s[i];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.p999 = at(0.999);
  double sum = 0;
  for (double v : s) sum += v;
  p.mean = sum / static_cast<double>(s.size());
  p.max = s.back();
  return p;
}

Json percentiles_json(const LatencyPercentiles& p) {
  return Json::object()
      .set("p50", p.p50)
      .set("p90", p.p90)
      .set("p99", p.p99)
      .set("p999", p.p999)
      .set("mean", p.mean)
      .set("max", p.max);
}

Json costs_json(const BurstCostTable& costs) {
  Json fast = Json::array();
  for (double v : costs.fast_us) fast.push_back(v);
  Json slow = Json::array();
  for (double v : costs.slow_us) slow.push_back(v);
  return Json::object()
      .set("controller_us", costs.controller_us)
      .set("fast_us", std::move(fast))
      .set("slow_us", std::move(slow))
      .set("config", costs.config_name)
      .set("params_key", costs.params_key);
}

Json fleet_row_json(const FleetSpec& s, bool with_kind) {
  Json row = Json::object().set("label", s.label);
  if (with_kind) {
    row.set("kind", s.kind == net::StackKind::kTcpIp ? "tcpip" : "rpc");
  }
  return row.set("config", s.config.name)
      .set("scheme", code::to_string(s.scheme))
      .set("connections", static_cast<std::uint64_t>(s.connections))
      .set("packets", s.packets)
      .set("batch", static_cast<std::uint64_t>(s.batch))
      .set("zipf_s", s.zipf_s)
      .set("seed", s.seed)
      .set("cache_capacity", static_cast<std::uint64_t>(s.cache_capacity));
}

Json cache_json(const code::FlowCacheStats& c, CacheFields fields) {
  Json j = Json::object()
               .set("lookups", c.lookups)
               .set("hits", c.hits)
               .set("misses", c.misses)
               .set("stale_hits", c.stale_hits);
  const bool full = fields == CacheFields::kFull;
  if (full) {
    j.set("unkeyed", c.unkeyed)
        .set("unmatched_scans", c.unmatched_scans)
        .set("rules_examined", c.rules_examined);
  }
  j.set("hit_ratio", c.hit_ratio());
  if (full) j.set("stale_ratio", c.stale_ratio());
  return j.set("cost_us", c.cost_us);
}

std::uint64_t sample_digest(const std::vector<double>& samples) {
  std::uint64_t h = kSampleDigestSeed;
  for (double v : samples) fnv1a_value(h, v);
  return h;
}

}  // namespace l96::harness
