// The packet driver: the one engine behind every fleet-shaped row (shard
// core, recovery, LB failover).  A row is three choices:
//
//  * topology — a TCP pair (net::World, one server sink), an RPC pair
//    (MSELECT services; repair and churn are no-ops), or the LB tier
//    (net::LbWorld, connections to the VIP, a sink on every backend);
//  * pacing — closed loop when the chaos script is empty.  Otherwise sends
//    are spread over 1.25x the script's last window end (every window
//    overlaps live traffic, the final fifth lands after it), dead
//    connections are repaired before their next send, lost sends are
//    counted, and samples and deliveries are timestamped;
//  * pricer — BurstPricer over the row's BurstCostTable (the LB tier's is
//    one position of kind kLb).
//
// Every row walks its core's steps of fleet_detail::build_schedule() (as
// split by split_schedule), establishes in waves of 256 through an O(1)
// counter, and attributes priced frames one frame late: a frame is
// scheduled traffic only if it was priced inside a burst AND its
// processing completed a delivery, so keepalive probes, stray ACKs and
// RSTs landing mid-burst stay handshake traffic.  Without chaos every
// in-burst frame is a delivery and the rule equals eager attribution.
// When the walk ends the driver reads the Fallout off the topology's
// client, servers and wires.
// Fixed inputs => byte-identical samples, counters and timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/fleet_internal.h"
#include "net/chaos.h"

namespace l96::harness::driver {

/// Prices one front-end activation as controller + lookup + the table's
/// cost at the current burst position, plus a second wire leg for the LB
/// tier (kind kLb: client -> LB -> backend).  Frames outside a burst
/// (handshakes, repairs) price at position 0 without advancing it, and a
/// stale hit's slow path sweeps the primary caches, so the packet after it
/// re-warms from position 0.
struct BurstPricer {
  const BurstCostTable* costs = nullptr;
  bool in_burst = false;
  std::size_t pos = 0;

  void begin_burst() {
    in_burst = true;
    pos = 0;
  }
  void end_burst() { in_burst = false; }
  /// Price one delivery and advance the position.
  double price(const code::FlowLookupResult& lr, bool slow);
};

/// Receives every front-end classification: the lookup result and whether
/// the frame took the slow path.
using PriceHook = std::function<void(const code::FlowLookupResult&, bool)>;

/// Who sends and who serves; build one with pair() or tier().
struct Topology {
  net::StackKind kind = net::StackKind::kTcpIp;  ///< kTcpIp or kRpc
  xk::EventManager* events = nullptr;
  net::Host* client = nullptr;
  /// TCP: every host that listens for the fleet (the server, or the LB's
  /// backend pool).  RPC: the server whose MSELECT serves the calls.
  std::vector<net::Host*> servers;
  /// Every wire a failure script can darken (fallout's blackout_drops).
  std::vector<net::Wire*> wires;
  std::uint32_t dst_ip = 0;  ///< the server's address or the LB's VIP
  /// Zero the front end's lookup counters (the handshakes warmed them) and
  /// price every frame it classifies from now on.
  std::function<void(PriceHook)> price_from_here;
  std::function<void(const net::ChaosTimeline&, std::uint64_t)> install;
};

/// Client -> server over one World: TCP/IP or RPC, priced at the server's
/// flow-cache deliver hook.
Topology pair(net::World& world);
/// Client -> LB -> backend pool, priced at the LB's forward hook.
Topology tier(net::LbWorld& world);

/// What the driver walks and how it paces it.
struct Plan {
  /// Names the row in stall errors: "<row>: <what> at scheduled packet N".
  std::string row;
  /// This run's share of the schedule (fleet_detail::split_schedule).
  const fleet_detail::CoreWork* work = nullptr;
  std::uint64_t packets = 0;  ///< total scheduled packets (pacing)
  /// Flows take ports base + local index instead of base + global index.
  bool local_ports = false;
  /// Failure script anchored at schedule time zero; empty = closed loop.
  net::ChaosTimeline chaos;
  /// Extra virtual time to run past the script's last window (LB health
  /// probes need it to observe the healed backend).
  std::uint64_t horizon_slack_us = 0;
  BurstPricer pricer;
};

/// A priced sample tagged with its global merge key.  phase 0 = scheduled
/// data packet of burst `burst`; phase 1 = a frame priced outside any burst
/// (a churn handshake drained after burst `burst`).  Within one (burst,
/// phase) all samples come from one core, in that core's append order, so
/// a stable merge on the key reproduces the fleet-wide stream.
struct TaggedSample {
  std::uint64_t burst = 0;
  std::uint32_t phase = 0;
  double us = 0;
};

/// A closed interval of virtual time whose samples report as disrupted.
struct Phase {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct Run {
  /// Counters, latency, digest and sim_us over this run's own samples;
  /// spec and cache are the caller's to fill.
  FleetResult result;
  std::vector<TaggedSample> samples;
  // Paced rows only: when each sample was priced and each delivery
  // completed, and the repair / lost-send intervals.
  std::vector<std::uint64_t> sample_times;
  std::vector<std::uint64_t> delivery_times;
  std::vector<Phase> disrupted;
  std::uint64_t base_us = 0;  ///< schedule time zero (the script's anchor)
  std::uint64_t lost_packets = 0;
  std::uint64_t reconnects = 0;
  Fallout fallout;

  /// `w` placed at base_us, with the samples priced inside it.
  WindowSpan span(const net::ChaosWindow& w) const;
  /// Latency of the samples priced inside (`disrupted`) or outside the
  /// disrupted phases; their count goes to `n`.  Closed-loop rows carry no
  /// timestamps, so all their samples are steady.
  LatencyPercentiles phase_latency(bool disrupted, std::uint64_t& n) const;
};

/// Drive `plan` over `topo`: open the flows this core owns, walk the
/// schedule, and price every front-end frame.  Throws std::runtime_error
/// naming plan.row when the world stalls.
Run drive(const Topology& topo, const Plan& plan);

/// Whether `costs` can price the row — the checks every driven row shares.
/// Throws std::invalid_argument, prefixed with `caller`, unless path
/// inlining is on (the slow-path fallback is what the rows price), the
/// population and schedule are non-empty, and `costs` is well formed and
/// was measured for the row's stack kind, config and params.
void check_costs(const char* caller, const FleetSpec& row,
                 const BurstCostTable& costs);

}  // namespace l96::harness::driver
