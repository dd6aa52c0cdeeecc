// Fleet rows: N concurrent connections demuxed through a flow cache
// (code/flow_cache.h) in front of the classifier's rule scan — what
// demultiplexing costs when many flows share one host behind a
// destination-locality cache (Jain, DEC-TR-592), the question the paper's
// Section 3.3 classifier discussion leaves open.
//
// A row drives a seeded Zipf *burst* schedule (one flow draw per burst of
// `batch` back-to-back packets, optional churn of the hottest connection)
// and prices every inbound server frame as controller/wire + cache-lookup
// cost + processing time, the last from a position-indexed BurstCostTable
// (a stale hit after churn takes the standalone slow path at its burst
// position).  This header holds the row's spec, counters and pricing
// table, and the fallout and window spans every paced row reports.  A row
// runs as a ShardSpec through harness::run(ShardRunSpec) or
// run_sharded_fleet (harness/shard.h), `cores = 1` being the
// single-machine row; its packets move through harness/driver.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "code/flow_cache.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "net/chaos.h"

namespace l96::harness {

/// Deterministic fingerprint of every MachineParams field that influences
/// measured costs.  Burst cost tables carry the key they were measured
/// under; the driver refuses to price a row whose params differ (a grid
/// sweeping cache sizes must measure one table per cell, not reuse the
/// defaults').
std::uint64_t machine_params_key(const MachineParams& params);

/// Position-indexed per-packet pricing for one (kind, config, params):
/// fast_us[p] is the steady receive-activation cost when the packet is the
/// (p+1)-th back-to-back packet of its burst; slow_us[p] is the standalone
/// slow-path cost (guard failure / stale hit) entered at burst position p.
/// Positions past the table clamp to the last entry (the steady-amortized
/// floor).  Measured once per (kind, config, params) by
/// measure_burst_costs; the LB tier's one-position table (kind kLb) comes
/// from measure_lb_costs (harness/lb.h).
struct BurstCostTable {
  double controller_us = 0;  ///< one controller+wire traversal (min frame)
  std::vector<double> fast_us;
  std::vector<double> slow_us;
  net::StackKind kind = net::StackKind::kTcpIp;
  std::string config_name;
  std::uint64_t params_key = 0;  ///< machine_params_key() of the params used

  std::size_t positions() const noexcept { return fast_us.size(); }
  double fast_at(std::size_t pos) const {
    return fast_us[pos < fast_us.size() ? pos : fast_us.size() - 1];
  }
  double slow_at(std::size_t pos) const {
    return slow_us[pos < slow_us.size() ? pos : slow_us.size() - 1];
  }
};

/// Measure a BurstCostTable with `max_positions` entries for `cfg` on
/// `kind`: capture the server's receive activation, price a back-to-back
/// stream of it (fast_us[p] = position p of measure_stream), then price
/// the marker-bracketed slow-path form entered after p fast activations
/// (slow_us[p]).
BurstCostTable measure_burst_costs(net::StackKind kind,
                                   const code::StackConfig& cfg,
                                   std::size_t max_positions = 1,
                                   const MachineParams& params =
                                       MachineParams::defaults());

/// Seeded Zipf(s) sampler over {0, ..., n-1}: P(k) proportional to
/// 1/(k+1)^s (s = 0 is uniform).  Deterministic: xorshift64* over the
/// seed, inverse-CDF lookup.  Throws std::invalid_argument when n == 0 or
/// s is not finite.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// One fleet row: a population of connections under one cache scheme.
struct FleetSpec {
  std::string label;
  net::StackKind kind = net::StackKind::kTcpIp;
  /// Stack configuration for both hosts; must have path_inlining on for
  /// the slow-path fallback to mean anything (PIN / ALL).
  code::StackConfig config;
  std::size_t connections = 8;
  std::uint64_t packets = 256;    ///< scheduled client->server packets
  /// Packets sent back to back per scheduled burst (per-flow coalescing:
  /// the Zipf sampler draws ONE flow per burst).  1 = the pre-burst
  /// engine: every packet is an independent first-in-burst activation.
  std::size_t batch = 1;
  double zipf_s = 1.1;            ///< flow-popularity skew (0 = uniform)
  std::uint64_t seed = 1;
  code::FlowCacheScheme scheme = code::FlowCacheScheme::kLru;
  std::size_t cache_capacity = 8;
  code::FlowCacheCosts cache_costs{};
  /// Decoy classifier paths installed ahead of the real fast path on the
  /// server (protocols/rulegen.h) — the production-scale rule table whose
  /// scan cost the flow cache is supposed to amortize.  0 keeps the default
  /// hand-written classifier (and the historical numbers) byte for byte.
  std::size_t rules = 0;
  std::uint64_t rule_seed = 1;
  /// Every `churn_every` scheduled packets, close and reopen the hottest
  /// connection (TCP/IP only) between bursts: the demux unbind invalidates
  /// its flow and the reopened flow's next frame is a stale hit.  0
  /// disables churn.
  std::uint64_t churn_every = 0;
  /// Params this row is priced under; must match the cost table's
  /// params_key or the run throws (cache-size sweeps must not silently
  /// reuse costs measured under the defaults).
  MachineParams params = MachineParams::defaults();
};

/// The packet counters every fleet-shaped row reports: a whole row, one
/// of its cores, a recovery row's fleet view, or an LB row (whose cache is
/// the LB's conn track).  Conservation (enforced by bench_fleet_scaling's
/// exit status; paced rows add their lost_packets to the first line):
///   spec.packets == scheduled_sampled + dropped_in_churn
///   packets_sampled == scheduled_sampled + handshake_sampled
struct FleetCounts {
  std::uint64_t packets_sampled = 0;  ///< frames priced at the front end
  std::uint64_t scheduled_sampled = 0;  ///< of which: scheduled data packets
  std::uint64_t handshake_sampled = 0;  ///< of which: churn handshake frames
  /// Scheduled packets that were never priced because their connection was
  /// torn down with the frame still in flight.
  std::uint64_t dropped_in_churn = 0;
  std::uint64_t bursts = 0;           ///< scheduled bursts (flow draws)
  std::uint64_t slow_packets = 0;     ///< routed through the slow path
  std::uint64_t churns = 0;
  code::FlowCacheStats cache;         ///< scheme hit/miss/stale counters

  /// Field-wise sum (a row's counters are the sum over its cores).
  FleetCounts& operator+=(const FleetCounts& o) noexcept;
};

/// What a row's failure script did to its hosts and wires, read off the
/// topology when the packet driver finishes (harness/driver.h).  Client
/// counters cover every connection the client ever held; a server's
/// counters reset with each incarnation, so rst_sent covers the current
/// one (the post-reboot convergence storm).
struct Fallout {
  std::uint64_t client_retransmits = 0;  ///< data rexmts, all client conns
  std::uint64_t client_syn_retransmits = 0;
  std::uint64_t connect_failures = 0;       ///< SYN-retry exhaustions
  std::uint64_t keepalive_probes_sent = 0;  ///< client-side probes
  std::uint64_t keepalive_reaps = 0;        ///< client-side half-open reaps
  std::uint64_t rst_sent = 0;        ///< summed over the servers
  std::uint64_t frames_to_dead = 0;  ///< frames a crashed host discarded
  std::uint64_t blackout_drops = 0;  ///< frames a dark wire swallowed
  std::uint64_t purged_events = 0;   ///< timers killed by crashes
  std::uint32_t incarnations = 0;    ///< summed over the servers (1 + reboots)

  friend bool operator==(const Fallout&, const Fallout&) = default;
};

/// A failure window placed on a paced run's timeline: the script-relative
/// window, its absolute [start, end) and the samples priced inside it.
struct WindowSpan {
  net::ChaosWindow window;
  std::uint64_t start_abs_us = 0;
  std::uint64_t end_abs_us = 0;
  std::uint64_t samples_in_window = 0;
};

/// One world's run of a fleet row: what the packet driver returns for one
/// core, and a recovery row's fleet view.
struct FleetResult : FleetCounts {
  FleetSpec spec;                   ///< echoed for reporting
  LatencyPercentiles latency;       ///< per-packet latency distribution (us)
  double sim_us = 0;                ///< virtual time the world consumed
  std::uint64_t sample_digest = 0;  ///< FNV-1a over the per-packet samples
};

}  // namespace l96::harness
