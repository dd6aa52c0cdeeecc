// The load-balancer failover harness: price the LB tier's forwarding path
// under live traffic and failure scripts.
//
// The fleet/recovery rows price an *endpoint's* receive activation; these
// rows price the *forwarding tier* between the client and the backend
// pool (net/lb.h), from two captured LbHost activations (measure_lb_costs).
// run_lb() drives the fleet schedule (harness/driver.h, LB-tier topology)
// over an LbWorld while a ChaosTimeline drains, crashes and partitions
// backends, pricing every client->LB frame with the driver's BurstPricer
// over a one-position table of kind kLb:
//
//     wire leg in + conn-track lookup + (fast | slow) + wire leg out
//
// and reports steady vs disrupted percentiles, packet conservation under
// loss, per-rebuild remap counts (the Maglev disruption bound
// bench_lb_failover enforces), and per-window time-to-steer-away /
// time-to-restore — byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "code/flow_cache.h"
#include "harness/fleet.h"
#include "harness/json.h"
#include "net/chaos.h"
#include "net/lb.h"

namespace l96::harness {

/// The LB tier's pricing is a one-position BurstCostTable of kind kLb:
/// fast_us[0] is a pinned conn-track hit -> rewrite -> forward, slow_us[0]
/// a stale rebind (hash + Maglev probe + re-pin).  The name stays for the
/// callers that spell it.
using LbCostTable = BurstCostTable;

/// Measure the LB table for `cfg`: warm an LbWorld's ping-pong flow,
/// capture one pinned-hit forwarding activation (fast), invalidate the
/// conn track so the next frame records the stale rebind (slow), and
/// price both with measure_side under kind = kLb — the slow activation
/// replays under the fast capture's layout profile, so with path
/// inlining it pays the standalone cold-segment placements.
BurstCostTable measure_lb_costs(const code::StackConfig& cfg,
                                const MachineParams& params =
                                    MachineParams::defaults());

/// One failover row: a connection fleet steered across a backend pool
/// while a failure script runs.
struct LbSpec {
  std::string label;
  /// Stack configuration for all three tiers; must have path_inlining on
  /// (the slow-path fallback is what failover prices).
  code::StackConfig config;
  std::size_t backends = 4;
  std::size_t connections = 8;
  std::uint64_t packets = 256;  ///< scheduled client->backend packets
  std::size_t batch = 1;        ///< packets per burst (one flow draw each)
  double zipf_s = 1.1;
  std::uint64_t seed = 1;
  code::FlowCacheScheme track_scheme = code::FlowCacheScheme::kLru;
  std::size_t track_capacity = 1024;
  code::FlowCacheCosts track_costs{};
  std::size_t maglev_table_size = net::MaglevTable::kDefaultTableSize;
  net::LbHealthParams health{};
  /// Backend-targeted failure script (drain/undrain, crash/reboot,
  /// backend-link blackouts), anchored at schedule time zero.
  net::ChaosTimeline chaos;
  MachineParams params = MachineParams::defaults();
};

/// Per-disruption-window steering verdict, derived from the LB's rebuild
/// records: how long after the fault began did the pool stop offering
/// the target backend, and how long after it ended was it restored.
struct LbSteer : WindowSpan {
  bool steered_away = false;  ///< a rebuild removed the target backend
  double tta_us = -1;         ///< rebuild time - window start (detection)
  bool restored = false;      ///< a rebuild restored it after window end
  double ttr_us = -1;         ///< rebuild time - window end
};

/// One failover row's report.  The FleetCounts are the LB front end's:
/// client->LB frames priced, and `cache` is the conn track.  Conservation
/// under chaos (bench_lb_failover enforces the first with no packet
/// dropped in churn):
///   spec.packets == scheduled_sampled + dropped_in_churn + lost_packets
///   packets_sampled == scheduled_sampled + handshake_sampled
struct LbResult : FleetCounts {
  LbSpec spec;  ///< echoed for reporting

  /// Scheduled packets whose connection died with the byte undelivered
  /// (crash failover); a drain-only script must lose zero (bench).
  std::uint64_t lost_packets = 0;
  std::uint64_t reconnects = 0;

  // LB-tier counters (harvested from the LbHost).
  std::uint64_t forwards = 0;
  std::uint64_t slow_forwards = 0;
  std::uint64_t returns_forwarded = 0;
  std::uint64_t drops_no_backend = 0;
  std::uint64_t dark_forwards = 0;
  std::uint64_t health_probes = 0;
  std::vector<net::LbRebuild> rebuilds;

  Fallout fallout;  ///< client/backend-side toll of the script

  // Latency: every priced client->LB frame, split steady vs disrupted
  // (inside a failure window or its repair tail).
  LatencyPercentiles latency;
  LatencyPercentiles steady;
  LatencyPercentiles disrupted;
  std::uint64_t steady_samples = 0;
  std::uint64_t disrupted_samples = 0;

  std::vector<LbSteer> windows;
  double sim_us = 0;
  std::uint64_t sample_digest = 0;  ///< FNV-1a over the per-frame samples
};

/// Run one failover row.  Throws std::runtime_error (naming the row) when
/// the world stalls, and std::invalid_argument when the spec is malformed
/// or the cost table does not match its config/params.
LbResult run_lb(const LbSpec& spec, const BurstCostTable& costs);

/// The rows + shared costs as a schema-versioned section (`l96.lb.v2`):
/// the costs, counter, fallout and window-span blocks are the ones
/// `l96.shard.v2` and `l96.recovery.v2` print (harness/stats.h).
Json lb_json(const BurstCostTable& costs, const std::vector<LbResult>& rows);

}  // namespace l96::harness
