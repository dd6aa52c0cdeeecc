// Recovery rows: the fleet engine (harness/fleet.h) driven through a
// scripted failure timeline (net/chaos.h), with the disruption priced.
//
// A recovery row is a fleet row plus a ChaosTimeline and the TCP survival
// knobs (keepalive, bounded SYN retries), run in the packet driver's paced
// mode (harness/driver.h).  With an empty timeline and the knobs off its
// samples are byte-identical to the 1-core shard row of the same fleet
// spec (bench_recovery_latency cross-checks).  The report splits latency
// into steady vs recovery phases: a window's recovery phase runs from its
// start until the first completed delivery at or after its end (which
// also defines its time-to-recover), and every failed send or repair is a
// phase of its own.
//
// Determinism contract: fixed spec => byte-identical samples, digests, and
// window reports, for any harness::run worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fleet.h"
#include "net/chaos.h"

namespace l96::harness {

struct RecoverySpec {
  FleetSpec fleet;           ///< population / schedule / pricing row
  net::ChaosTimeline chaos;  ///< failure script, relative to the reset point
  /// TCP keepalive applied to both hosts when idle != 0 (reaps half-open
  /// connections a server crash leaves behind).
  std::uint64_t keepalive_idle_us = 0;
  std::uint64_t keepalive_intvl_us = 100'000;
  std::uint32_t keepalive_probes = 2;
  /// Bound on SYN retries for the reconnect storm (0 = retry forever).
  std::uint32_t max_syn_rexmts = 0;
};

/// One disruption window's outcome, in absolute virtual time.  Priced
/// server deliveries inside [start, end) must be 0 for blackout windows
/// (the wire blackholes everything) and for crash windows (the dead host
/// discards arrivals) — bench_recovery_latency exit-enforces.
struct RecoveryWindow : WindowSpan {
  bool recovered = false;            ///< a delivery completed after the window
  std::uint64_t first_delivery_abs_us = 0;  ///< when recovered
  /// Time-to-recover: first completed delivery at/after the window's end,
  /// minus the end (< 0 never happens; unrecovered windows report -1).
  double ttr_us = -1;
};

struct RecoveryResult {
  RecoverySpec spec;
  /// The fleet-engine view: sampled packet counts, cache stats, overall
  /// latency, sample digest (byte-identical to the 1-core shard row when
  /// the timeline is empty and the knobs are off).
  FleetResult fleet;
  std::vector<RecoveryWindow> windows;

  // Conservation: fleet.spec.packets ==
  //   fleet.scheduled_sampled + fleet.dropped_in_churn + lost_packets.
  std::uint64_t lost_packets = 0;   ///< scheduled packets that died with a conn
  std::uint64_t reconnects = 0;     ///< re-establishments after a conn died
  Fallout fallout;                  ///< the script's toll on hosts and wire

  /// Latency split by phase: recovery covers [window start, first delivery
  /// at/after window end] for every window, plus every failed send attempt
  /// and reconnect repair interval; steady is everything else.
  LatencyPercentiles steady;
  LatencyPercentiles recovery;
  std::uint64_t steady_samples = 0;
  std::uint64_t recovery_samples = 0;
};

/// Run one recovery row.  TCP/IP only (the RPC fleet has no reconnect
/// machinery to measure); the script must not crash the client (it is the
/// measuring instrument) — both violations throw std::invalid_argument.
RecoveryResult run_recovery(const RecoverySpec& spec,
                            const BurstCostTable& costs);

/// Schema-versioned section (`l96.recovery.v2`) for standalone emission /
/// SweepOutcome::extra_json.  Its costs and counter blocks are the ones
/// `l96.shard.v2` prints, its fallout block and window spans the ones
/// `l96.lb.v2` prints (harness/stats.h).
Json recovery_json(const BurstCostTable& costs,
                   const std::vector<RecoveryResult>& rows);

}  // namespace l96::harness
