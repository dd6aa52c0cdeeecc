// Tests for the sharded multi-core fleet (harness/shard.h): byte-identical
// results across worker counts, steering determinism and conservation,
// the churn-owner rule, the jumbo local-port mode, the open-loop queueing
// view, and spec validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/fleet.h"
#include "harness/fleet_internal.h"
#include "harness/runner.h"
#include "harness/shard.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;
using harness::ShardResult;
using harness::ShardSpec;
using harness::SteeringPolicy;

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 3);
  return table;
}

const BurstCostTable& rpc_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kRpc, code::StackConfig::All(), 3);
  return table;
}

FleetSpec fleet_spec() {
  FleetSpec spec;
  spec.label = "shard-test";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.connections = 12;
  spec.packets = 96;
  spec.batch = 4;
  spec.zipf_s = 1.1;
  spec.seed = 9;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 8;
  spec.churn_every = 24;
  return spec;
}

TEST(SteeringTest, DeterministicAndComplete) {
  const FleetSpec fleet = fleet_spec();
  for (SteeringPolicy p :
       {SteeringPolicy::kFlowHash, SteeringPolicy::kLeastLoaded}) {
    const auto a = harness::steer_flows(fleet, 4, p);
    const auto b = harness::steer_flows(fleet, 4, p);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), fleet.connections);
    for (std::uint32_t c : a) EXPECT_LT(c, 4u);
  }
  // One core: everything on core 0.
  for (std::uint32_t c :
       harness::steer_flows(fleet, 1, SteeringPolicy::kFlowHash)) {
    EXPECT_EQ(c, 0u);
  }
  EXPECT_THROW(harness::steer_flows(fleet, 0, SteeringPolicy::kFlowHash),
               std::invalid_argument);
}

TEST(SteeringTest, HashSpreadsFlowsAcrossCores) {
  FleetSpec fleet = fleet_spec();
  fleet.connections = 256;
  const auto map =
      harness::steer_flows(fleet, 8, SteeringPolicy::kFlowHash);
  std::vector<std::size_t> per_core(8, 0);
  for (std::uint32_t c : map) ++per_core[c];
  for (std::size_t n : per_core) {
    EXPECT_GT(n, 8u);  // 256/8 = 32 expected; any core starving means a
    EXPECT_LT(n, 96u);  // degenerate hash
  }
}

TEST(SteeringTest, LeastLoadedBalancesZipfLoad) {
  FleetSpec fleet = fleet_spec();
  fleet.connections = 32;
  fleet.packets = 512;
  fleet.zipf_s = 1.3;
  fleet.churn_every = 0;
  const auto schedule = harness::fleet_detail::build_schedule(fleet);
  const auto map =
      harness::steer_flows(fleet, 4, SteeringPolicy::kLeastLoaded);
  std::vector<std::uint64_t> load(4, 0);
  for (const auto& b : schedule) load[map[b.flow]] += b.len;
  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  // The hot flow alone is ~30% of the schedule under s=1.3, so the
  // least-loaded bound is its core; no core should exceed ~60%.
  EXPECT_LT(max_load, 512u * 6 / 10);
}

TEST(ShardTest, DigestsIdenticalAcrossWorkerCountsAndRuns) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 4;
  spec.arrival_us = 150.0;
  const std::vector<ShardSpec> rows = {spec};

  harness::ShardRunSpec rs;
  rs.rows = rows;
  rs.costs = tcp_table();
  rs.common.workers = 1;
  const auto a = harness::run(rs).shard;
  rs.common.workers = 4;
  const auto b = harness::run(rs).shard;
  const auto c = harness::run(rs).shard;
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].sample_digest, b[0].sample_digest);
  EXPECT_EQ(b[0].sample_digest, c[0].sample_digest);
  EXPECT_DOUBLE_EQ(a[0].makespan_us, b[0].makespan_us);
  EXPECT_DOUBLE_EQ(a[0].sojourn.p999, b[0].sojourn.p999);
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(a[0].cores[core].sample_digest, b[0].cores[core].sample_digest);
    EXPECT_EQ(a[0].cores[core].packets_sampled,
              b[0].cores[core].packets_sampled);
  }
}

TEST(ShardTest, AggregateCacheIsThePerCoreSumOfEveryField) {
  // A rules row on 4 cores: each core's flow cache counts its own scans,
  // and the row's aggregate must carry every counter — unmatched_scans
  // included — not a hand-picked subset.
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.rules = 64;
  spec.cores = 4;
  const ShardResult r = harness::run_sharded_fleet(spec, tcp_table());
  code::FlowCacheStats sum;
  for (const auto& core : r.cores) sum += core.cache;
  EXPECT_GT(sum.lookups, 0u);
  EXPECT_EQ(r.cache.lookups, sum.lookups);
  EXPECT_EQ(r.cache.hits, sum.hits);
  EXPECT_EQ(r.cache.misses, sum.misses);
  EXPECT_EQ(r.cache.stale_hits, sum.stale_hits);
  EXPECT_EQ(r.cache.unkeyed, sum.unkeyed);
  EXPECT_EQ(r.cache.rules_examined, sum.rules_examined);
  EXPECT_EQ(r.cache.unmatched_scans, sum.unmatched_scans);
  EXPECT_DOUBLE_EQ(r.cache.cost_us, sum.cost_us);
}

TEST(ShardTest, SteeringConservationAcrossCores) {
  for (SteeringPolicy p :
       {SteeringPolicy::kFlowHash, SteeringPolicy::kLeastLoaded}) {
    ShardSpec spec;
    spec.fleet = fleet_spec();
    spec.cores = 4;
    spec.steering = p;
    const ShardResult r = harness::run_sharded_fleet(spec, tcp_table());
    EXPECT_TRUE(r.conserved);
    EXPECT_EQ(r.scheduled_sampled + r.dropped_in_churn, spec.fleet.packets);

    std::uint64_t scheduled = 0, packets = 0, bursts = 0;
    std::size_t flows = 0;
    for (const auto& c : r.cores) {
      scheduled += c.scheduled_sampled;
      packets += c.packets_sampled;
      bursts += c.bursts;
      flows += c.flows;
    }
    EXPECT_EQ(scheduled, r.scheduled_sampled);
    EXPECT_EQ(packets, r.packets_sampled);
    EXPECT_EQ(bursts, r.bursts);
    EXPECT_EQ(flows, spec.fleet.connections);
  }
}

TEST(ShardTest, ChurnRunsOnFlowZeroOwnerOnly) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 4;
  const auto map =
      harness::steer_flows(spec.fleet, spec.cores, spec.steering);
  const ShardResult r = harness::run_sharded_fleet(spec, tcp_table());
  ASSERT_GT(r.churns, 0u);
  for (const auto& c : r.cores) {
    if (c.core == map[0]) {
      EXPECT_EQ(c.churns, r.churns);
    } else {
      EXPECT_EQ(c.churns, 0u);
      EXPECT_EQ(c.handshake_sampled, 0u);
    }
  }
}

TEST(ShardTest, RpcFleetShards) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.kind = net::StackKind::kRpc;
  spec.fleet.churn_every = 0;
  spec.cores = 4;
  const ShardResult r = harness::run_sharded_fleet(spec, rpc_table());
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.scheduled_sampled, spec.fleet.packets);
  EXPECT_EQ(r.handshake_sampled, 0u);
}

TEST(ShardTest, QueueModelExposesHotCoreUnderSkew) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.connections = 32;
  spec.fleet.packets = 512;
  spec.fleet.zipf_s = 1.4;
  spec.fleet.churn_every = 0;
  spec.cores = 4;
  // Offer aggregate load around the fleet's mean service capacity: the
  // hot flow's core saturates, the rest idle.
  const ShardResult probe = harness::run_sharded_fleet(spec, tcp_table());
  spec.arrival_us = probe.latency.mean / static_cast<double>(spec.cores);
  const ShardResult r = harness::run_sharded_fleet(spec, tcp_table());

  EXPECT_GT(r.makespan_us, 0.0);
  EXPECT_GT(r.throughput_mpps, 0.0);
  const auto& hot = r.cores[r.hot_core];
  EXPECT_GT(hot.utilization, 0.0);
  // The hot core queues; its sojourn tail must exceed its pure service
  // tail, and somebody must have waited.
  EXPECT_GE(hot.sojourn.p999, hot.service.p999);
  EXPECT_GT(hot.max_wait_us, 0.0);
  // Sojourn == service when the queue model is off.
  EXPECT_DOUBLE_EQ(probe.sojourn.p999, probe.latency.p999);
}

TEST(ShardTest, ValidatesSpec) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 0;
  EXPECT_THROW(harness::run_sharded_fleet(spec, tcp_table()),
               std::invalid_argument);
  spec.cores = 2;
  spec.arrival_us = -1;
  EXPECT_THROW(harness::run_sharded_fleet(spec, tcp_table()),
               std::invalid_argument);
}

TEST(ShardTest, RejectsNonFiniteArrival) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 2;
  for (double bad :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    spec.arrival_us = bad;
    EXPECT_THROW(harness::run_sharded_fleet(spec, tcp_table()),
                 std::invalid_argument);
  }
}

TEST(ShardTest, OneCoreRowPastPortSpaceIsRejected) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.fleet.connections = harness::fleet_detail::kMaxFlowsPerWorld + 1;
  EXPECT_THROW(harness::run_sharded_fleet(spec, tcp_table()),
               std::invalid_argument);
}

TEST(ShardTest, ShardJsonCarriesSchemaAndRows) {
  ShardSpec spec;
  spec.fleet = fleet_spec();
  spec.cores = 2;
  const ShardResult r = harness::run_sharded_fleet(spec, tcp_table());
  const harness::Json section = harness::shard_json(tcp_table(), {r});
  const std::string dump = section.dump();
  EXPECT_NE(dump.find("\"schema\":\"l96.shard.v2\""), std::string::npos);
  EXPECT_NE(dump.find("\"per_core\""), std::string::npos);
  EXPECT_NE(dump.find("\"steering\":\"hash\""), std::string::npos);
  EXPECT_NE(dump.find("\"conserved\":true"), std::string::npos);
}

}  // namespace
}  // namespace l96
