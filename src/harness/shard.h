// Shard rows: every fleet row, run with RSS-style flow steering over
// per-core machine models.
//
// A shard row is a fleet row (harness/fleet.h) executed across N simulated
// cores (`cores = 1` is the single-machine row), each a private machine:
// its own net::World (memory arena, caches, demux map, connections) and
// code::FlowCache, sharing the burst cost table.  Flows are steered the
// way a receive-side-scaling NIC steers them — a hash of the flow's
// canonical wire identity (code::FlowKeySpec over the classifier's key
// fields) — or least-loaded for comparison.  A flow lives on one core, so
// burst coalescing never crosses a shard boundary.
//
// Every core walks the ONE global burst schedule, executing the bursts it
// owns and tagging each sample with its global (burst, phase) key; a
// serial merge rebuilds the fleet-wide stream in schedule order.  Fixed
// spec => byte-identical per-core streams, merged stream and digests for
// any harness::run worker count (tests/test_engine_pins.cc pins 1- and
// 4-core rows as literals).
//
// On top of the merged stream sits an optional open-loop queueing view:
// with arrival_us > 0, scheduled packet g arrives at g * arrival_us and
// queues FCFS behind its core (service time = the packet's priced cost);
// sojourn = queueing delay + service.  This is the head-of-line view: a
// Zipf-hot flow pins its core past saturation and that core's sojourn
// tail explodes while the fleet's median stays flat (the nanoPU
// single-hot-core scenario), which bench_fleet_scaling demonstrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fleet.h"

namespace l96::harness {

/// How flows are assigned to cores.
enum class SteeringPolicy {
  /// RSS: splitmix64 over the flow's canonical FlowKeySpec identity,
  /// modulo the core count.  Oblivious to load — one hot flow pins one
  /// core, exactly like hardware hash steering.
  kFlowHash,
  /// Assign each flow, at its first appearance in the schedule, to the
  /// core with the least scheduled packets so far (ties to the lowest
  /// core id); flows the schedule never draws fall back to the hash.
  /// Sticky: a flow never migrates once assigned.
  kLeastLoaded,
};

const char* to_string(SteeringPolicy p) noexcept;
/// Parses "hash" / "least" (and the long forms "flow_hash" /
/// "least_loaded"); throws std::invalid_argument otherwise.
SteeringPolicy steering_policy_from_string(const std::string& s);

/// One shard row: a fleet population spread over `cores` cores.
struct ShardSpec {
  FleetSpec fleet;
  std::size_t cores = 1;
  SteeringPolicy steering = SteeringPolicy::kFlowHash;
  /// Open-loop arrival spacing for the queueing view: scheduled packet g
  /// arrives at g * arrival_us.  0 disables queueing (sojourn == service,
  /// every core idles between packets).
  double arrival_us = 0;
};

/// What one core contributed, in the merged row's terms.
struct ShardCoreStats : FleetCounts {
  std::uint32_t core = 0;
  std::size_t flows = 0;  ///< flows steered here (drawn or not)
  LatencyPercentiles service;  ///< priced per-packet cost on this core
  LatencyPercentiles sojourn;  ///< queueing included (== service when
                               ///< arrival_us == 0)
  double busy_us = 0;          ///< total service time executed here
  double utilization = 0;      ///< busy_us / merged makespan
  double max_wait_us = 0;      ///< worst queueing delay (arrival model)
  double sim_us = 0;           ///< virtual time this core's world consumed
  std::uint64_t sample_digest = 0;  ///< FNV-1a over this core's stream
};

/// The merged fleet-wide view (global schedule order); the counters are
/// the per-core sums.
struct ShardResult : FleetCounts {
  ShardSpec spec;
  std::vector<ShardCoreStats> cores;  ///< indexed by core id
  LatencyPercentiles latency;   ///< merged service distribution
  LatencyPercentiles sojourn;   ///< merged sojourn distribution
  double sim_us = 0;            ///< the largest per-core sim_us
  /// FNV-1a over the merged sample stream; with cores == 1 it equals the
  /// core's own digest.
  std::uint64_t sample_digest = 0;
  /// Completion time of the busiest core under the arrival model (with
  /// arrival_us == 0: the largest per-core service sum — the batch
  /// makespan).
  double makespan_us = 0;
  /// Aggregate scheduled throughput: scheduled_sampled / makespan_us.
  double throughput_mpps = 0;
  std::uint32_t hot_core = 0;  ///< core with the largest busy_us
  /// True when per-core packet conservation held:
  ///   fleet.packets == sum(scheduled_sampled) + sum(dropped_in_churn)
  /// and every core's counters match its sample stream.
  bool conserved = false;
};

/// Deterministic flow -> core map for `spec.connections` flows.  Exposed
/// for tests: steering depends only on (fleet spec, cores, policy), never
/// on execution.
std::vector<std::uint32_t> steer_flows(const FleetSpec& fleet,
                                       std::size_t cores, SteeringPolicy p);

/// Run one shard row on one worker; harness::run (harness/runner.h)
/// spreads a grid's (row, core) jobs over its pool.  Throws
/// std::invalid_argument on a malformed spec (cores == 0, an arrival_us
/// that is negative or not finite, cost-table mismatch, a core's
/// population overflowing its port space).
ShardResult run_sharded_fleet(const ShardSpec& spec,
                              const BurstCostTable& costs);

/// Schema-versioned section (`l96.shard.v2`) with the shared costs, merged
/// rows, and per-core breakdowns.  A row echoes the fleet spec (rules,
/// rule_seed and cache_costs included); the row and every core carry the
/// full counter block (unmatched_scans included) and sim_us.
Json shard_json(const BurstCostTable& costs,
                const std::vector<ShardResult>& rows);

}  // namespace l96::harness
