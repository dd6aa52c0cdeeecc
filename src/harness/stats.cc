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

Json& set_counts(Json& row, const FleetCounts& c) {
  const code::FlowCacheStats& k = c.cache;
  return row.set("packets_sampled", c.packets_sampled)
      .set("scheduled_sampled", c.scheduled_sampled)
      .set("handshake_sampled", c.handshake_sampled)
      .set("dropped_in_churn", c.dropped_in_churn)
      .set("bursts", c.bursts)
      .set("slow_packets", c.slow_packets)
      .set("churns", c.churns)
      .set("cache", Json::object()
                        .set("lookups", k.lookups)
                        .set("hits", k.hits)
                        .set("misses", k.misses)
                        .set("stale_hits", k.stale_hits)
                        .set("unkeyed", k.unkeyed)
                        .set("unmatched_scans", k.unmatched_scans)
                        .set("rules_examined", k.rules_examined)
                        .set("hit_ratio", k.hit_ratio())
                        .set("stale_ratio", k.stale_ratio())
                        .set("cost_us", k.cost_us));
}

Json fallout_json(const Fallout& f) {
  return Json::object()
      .set("client_retransmits", f.client_retransmits)
      .set("client_syn_retransmits", f.client_syn_retransmits)
      .set("connect_failures", f.connect_failures)
      .set("keepalive_probes_sent", f.keepalive_probes_sent)
      .set("keepalive_reaps", f.keepalive_reaps)
      .set("rst_sent", f.rst_sent)
      .set("frames_to_dead", f.frames_to_dead)
      .set("blackout_drops", f.blackout_drops)
      .set("purged_events", f.purged_events)
      .set("incarnations", static_cast<std::uint64_t>(f.incarnations));
}

Json span_json(const WindowSpan& w) {
  return Json::object()
      .set("kind", w.window.drain   ? "drain"
                   : w.window.crash ? "crash"
                                    : "blackout")
      .set("target", net::to_string(w.window.target))
      .set("index", static_cast<std::uint64_t>(w.window.index))
      .set("start_us", w.start_abs_us)
      .set("end_us", w.end_abs_us)
      .set("samples_in_window", w.samples_in_window);
}

std::uint64_t sample_digest(const std::vector<double>& samples) {
  std::uint64_t h = kSampleDigestSeed;
  for (double v : samples) fnv1a_value(h, v);
  return h;
}

}  // namespace l96::harness
