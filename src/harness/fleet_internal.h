// Internal fleet-engine plumbing shared by the shard, recovery and LB
// rows and the packet driver (harness/driver.h): the wire identities, the
// one global burst schedule every row walks, the server world a row's
// core runs on, and the per-core execution the shard runner splits a row
// into (see harness/shard.h).  Not a public API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/fleet.h"

namespace l96::harness::driver {
struct Run;
}  // namespace l96::harness::driver

namespace l96::harness::fleet_detail {

/// Ports/procs every fleet-shaped row uses.
inline constexpr std::uint16_t kFleetServerPort = 7000;
inline constexpr std::uint16_t kFleetClientPortBase = 10'000;
inline constexpr std::uint16_t kFleetRpcProcBase = 100;

/// Client ports live in [kFleetClientPortBase, 65535]; a single World can
/// therefore hold at most this many distinct client flows.  Fleets beyond
/// it must shard (each core re-uses the port space for its own flows).
inline constexpr std::size_t kMaxFlowsPerWorld =
    65'536 - kFleetClientPortBase;

/// One globally-scheduled burst: `len` back-to-back packets on `flow`.
/// The schedule is a pure function of the spec, so the decisions (which
/// flow, how many packets, when to churn) never depend on core count.
struct ScheduledBurst {
  std::size_t flow = 0;      ///< global flow index (Zipf draw)
  std::uint64_t len = 0;     ///< packets in this burst (last one truncated)
  bool churn_after = false;  ///< flow 0 churns after this burst
};

/// The deterministic global schedule: one Zipf draw per burst, the last
/// burst truncated, churn marks against the global sent count.
std::vector<ScheduledBurst> build_schedule(const FleetSpec& spec);

/// One step of a core's walk over the schedule: a burst the core owns
/// (`len` > 0), a churn mark it executes as flow 0's core, or both.
struct CoreStep {
  std::size_t burst = 0;        ///< index into the global schedule
  std::uint64_t scheduled = 0;  ///< global scheduled packets before it
  std::uint64_t len = 0;        ///< packets this core sends; 0 = churn only
  std::size_t flow = 0;         ///< local flow index (when len > 0)
  bool churn_after = false;     ///< flow 0 churns after this burst
};

/// What one core executes of a row.
struct CoreWork {
  /// The core's flows in ascending global order: local index -> global.
  std::vector<std::size_t> flows;
  std::vector<CoreStep> steps;
  std::uint64_t packets = 0;  ///< scheduled packets the core sends
};

/// Split `schedule` by owning core (`flow_core[i]` maps global flow i to
/// its core) in one pass.  Churn marks go to flow 0's core whichever core
/// owns the burst they follow.
std::vector<CoreWork> split_schedule(
    const std::vector<ScheduledBurst>& schedule,
    const std::vector<std::uint32_t>& flow_core, std::size_t cores);

/// Demux-map sizing for a core holding `flows` connections: the historical
/// 64-bucket table up to 64 flows (pre-shard behaviour unchanged), then
/// the next power of two so chains stay O(1), capped at 2^16 (the port
/// space bounds flows per world anyway).
std::size_t conn_bucket_count(std::size_t flows);

/// The client/server World one core of `spec` runs on: demux map sized by
/// conn_bucket_count(flows), the spec's flow cache on the server, and the
/// scaled classifier when spec.rules > 0.
std::unique_ptr<net::World> make_world(const FleetSpec& spec,
                                       std::size_t flows);

/// Execute one core's share of a row (split_schedule) on a private World,
/// tagging every sample with its global (burst, phase) merge key.  With
/// `local_ports` false flow i keeps its global wire identity (client port
/// base + i); with it true each core numbers its flows locally, lifting
/// the population cap to cores * kMaxFlowsPerWorld (steering keeps the
/// canonical global identity).
driver::Run run_fleet_core(const FleetSpec& spec, const BurstCostTable& costs,
                           const CoreWork& work, bool local_ports);

}  // namespace l96::harness::fleet_detail
