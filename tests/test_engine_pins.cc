// Absolute pins on the packet driver (harness/driver.h): one small row per
// topology x pacing, with the sample digest and packet counters written
// down as literals.  The relative tests (chaos-free recovery == the 1-core
// shard row, worker-count invariance) cannot catch a change that moves
// every engine the same way; these can.  The two 1-core shard rows pin the
// single-machine engine.  A deliberate behaviour change must update the
// literal and say why.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/lb.h"
#include "harness/recovery.h"
#include "harness/shard.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;

struct Pin {
  std::uint64_t sample_digest;
  std::uint64_t packets_sampled;
  std::uint64_t scheduled_sampled;
  std::uint64_t handshake_sampled;
  std::uint64_t lost_packets;
  std::uint64_t reconnects;
};

void expect_pin(const Pin& want, const Pin& got) {
  EXPECT_EQ(got.sample_digest, want.sample_digest);
  EXPECT_EQ(got.packets_sampled, want.packets_sampled);
  EXPECT_EQ(got.scheduled_sampled, want.scheduled_sampled);
  EXPECT_EQ(got.handshake_sampled, want.handshake_sampled);
  EXPECT_EQ(got.lost_packets, want.lost_packets);
  EXPECT_EQ(got.reconnects, want.reconnects);
}

const BurstCostTable& table(net::StackKind kind, std::size_t positions) {
  static const BurstCostTable tcp1 = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 1);
  static const BurstCostTable tcp16 = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 16);
  static const BurstCostTable rpc1 = harness::measure_burst_costs(
      net::StackKind::kRpc, code::StackConfig::All(), 1);
  if (kind == net::StackKind::kRpc) return rpc1;
  return positions == 1 ? tcp1 : tcp16;
}

FleetSpec tcp_row() {
  FleetSpec s;
  s.label = "pin";
  s.kind = net::StackKind::kTcpIp;
  s.config = code::StackConfig::All();
  s.connections = 8;
  s.packets = 256;
  s.batch = 16;
  s.zipf_s = 1.2;
  s.seed = 42;
  s.scheme = code::FlowCacheScheme::kLru;
  s.cache_capacity = 8;
  s.churn_every = 32;
  return s;
}

Pin pin_of(const harness::ShardResult& r) {
  return {r.sample_digest, r.packets_sampled, r.scheduled_sampled,
          r.handshake_sampled, 0, 0};
}

Pin pin_of(const harness::RecoveryResult& r) {
  return {r.fleet.sample_digest,     r.fleet.packets_sampled,
          r.fleet.scheduled_sampled, r.fleet.handshake_sampled,
          r.lost_packets,            r.reconnects};
}

Pin pin_of(const harness::LbResult& r) {
  return {r.sample_digest,     r.packets_sampled, r.scheduled_sampled,
          r.handshake_sampled, r.lost_packets,    r.reconnects};
}

TEST(EnginePins, FlatTcpWithChurnAndBatch16) {
  const FleetSpec s = tcp_row();
  expect_pin({0x88146cbe7d1ba209ULL, 270, 256, 14, 0, 0},
             pin_of(harness::run_sharded_fleet({.fleet = s},
                                               table(s.kind, 16))));
}

TEST(EnginePins, RpcWith256Rules) {
  FleetSpec s;
  s.label = "pin";
  s.kind = net::StackKind::kRpc;
  s.config = code::StackConfig::All();
  s.connections = 8;
  s.packets = 128;
  s.zipf_s = 1.1;
  s.seed = 7;
  s.cache_capacity = 4;
  s.rules = 256;
  s.rule_seed = 3;
  expect_pin({0x0fa91a9d07eca04fULL, 128, 128, 0, 0, 0},
             pin_of(harness::run_sharded_fleet({.fleet = s},
                                               table(s.kind, 1))));
}

harness::ShardSpec shard_row(harness::SteeringPolicy steering) {
  harness::ShardSpec s;
  s.fleet = tcp_row();
  s.fleet.connections = 64;
  s.fleet.batch = 8;
  s.cores = 4;
  s.steering = steering;
  return s;
}

TEST(EnginePins, FourCoreShardHashSteering) {
  harness::ShardSpec s = shard_row(harness::SteeringPolicy::kFlowHash);
  s.fleet.churn_every = 16;
  expect_pin({0xc37f81d25d7dd017ULL, 286, 256, 30, 0, 0},
             pin_of(harness::run_sharded_fleet(s, table(s.fleet.kind, 16))));
}

TEST(EnginePins, FourCoreShardLeastLoadedWithArrivals) {
  harness::ShardSpec s = shard_row(harness::SteeringPolicy::kLeastLoaded);
  s.fleet.churn_every = 0;
  s.arrival_us = 50.0;
  expect_pin({0x77b697aae8b4edefULL, 256, 256, 0, 0, 0},
             pin_of(harness::run_sharded_fleet(s, table(s.fleet.kind, 16))));
}

harness::RecoverySpec recovery_row(const char* script) {
  harness::RecoverySpec s;
  s.fleet = tcp_row();
  s.fleet.packets = 128;
  s.fleet.batch = 1;
  s.fleet.churn_every = 0;
  s.fleet.zipf_s = 1.1;
  s.fleet.seed = 1;
  s.chaos = net::ChaosTimeline::parse(script);
  return s;
}

TEST(EnginePins, RecoveryBlackout) {
  const harness::RecoverySpec s =
      recovery_row("link_down@2000 link_up@52000");
  expect_pin({0x9db2d0c804a9db83ULL, 128, 128, 0, 0, 0},
             pin_of(harness::run_recovery(s, table(s.fleet.kind, 1))));
}

TEST(EnginePins, RecoveryCrashWithKeepalive) {
  harness::RecoverySpec s =
      recovery_row("crash@20000:server reboot@220000:server");
  s.fleet.batch = 2;
  s.fleet.churn_every = 40;
  s.keepalive_idle_us = 50'000;
  s.keepalive_intvl_us = 25'000;
  s.keepalive_probes = 2;
  expect_pin({0x485c68ed9743f6deULL, 1251, 127, 1124, 1, 8},
             pin_of(harness::run_recovery(s, table(s.fleet.kind, 1))));
}

harness::LbResult run_lb_row(const char* script) {
  static const harness::LbCostTable costs =
      harness::measure_lb_costs(code::StackConfig::All());
  harness::LbSpec s;
  s.label = "pin";
  s.config = code::StackConfig::All();
  s.backends = 4;
  s.connections = 8;
  s.packets = 128;
  s.zipf_s = 1.1;
  s.seed = 1;
  s.chaos = net::ChaosTimeline::parse(script);
  return harness::run_lb(s, costs);
}

TEST(EnginePins, LbDrain) {
  expect_pin(
      {0x8e4091853a365483ULL, 128, 128, 0, 0, 0},
      pin_of(run_lb_row("drain@20000:backend1 undrain@120000:backend1")));
}

TEST(EnginePins, LbCrash) {
  expect_pin(
      {0xb1f6486d256a2ae2ULL, 133, 126, 7, 2, 2},
      pin_of(run_lb_row("crash@20000:backend0 reboot@200000:backend0")));
}

}  // namespace
}  // namespace l96
