// The paced failover rows (recovery, LB) on the pieces every fleet-shaped
// row shares: the counter block the sections print, the FleetCounts
// conservation identities on an LB row, and the packet driver's one
// fallout harvest, checked against the per-family sums each row used to
// read off its own world.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/driver.h"
#include "harness/lb.h"
#include "harness/recovery.h"
#include "harness/shard.h"
#include "net/lb.h"
#include "protocols/tcp.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::Fallout;
using harness::Json;
namespace driver = harness::driver;
namespace fleet_detail = harness::fleet_detail;

const BurstCostTable& tcp_table() {
  static const BurstCostTable t = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 1);
  return t;
}

const BurstCostTable& lb_table() {
  static const BurstCostTable t =
      harness::measure_lb_costs(code::StackConfig::All());
  return t;
}

// The rows tests/test_engine_pins.cc pins as RecoveryCrashWithKeepalive
// and LbCrash.
harness::RecoverySpec recovery_crash_row() {
  harness::RecoverySpec s;
  s.fleet.label = "pin";
  s.fleet.config = code::StackConfig::All();
  s.fleet.connections = 8;
  s.fleet.packets = 128;
  s.fleet.batch = 2;
  s.fleet.zipf_s = 1.1;
  s.fleet.seed = 1;
  s.fleet.cache_capacity = 8;
  s.fleet.churn_every = 40;
  s.chaos =
      net::ChaosTimeline::parse("crash@20000:server reboot@220000:server");
  s.keepalive_idle_us = 50'000;
  s.keepalive_intvl_us = 25'000;
  s.keepalive_probes = 2;
  return s;
}

harness::LbSpec lb_crash_row() {
  harness::LbSpec s;
  s.label = "pin";
  s.config = code::StackConfig::All();
  s.backends = 4;
  s.connections = 8;
  s.packets = 128;
  s.zipf_s = 1.1;
  s.seed = 1;
  s.chaos =
      net::ChaosTimeline::parse("crash@20000:backend0 reboot@200000:backend0");
  return s;
}

const Json& first_row(const Json& section) {
  const Json::Array* rows = section.find("rows")->as_array();
  EXPECT_NE(rows, nullptr);
  return rows->front();
}

/// The counter block's keys as a row prints them: packets_sampled through
/// cache, with the cache object's own keys spelled "cache.<key>".
std::vector<std::string> counter_keys(const Json& row) {
  std::vector<std::string> keys;
  bool in_block = false;
  for (const auto& [key, value] : *row.as_object()) {
    in_block = in_block || key == "packets_sampled";
    if (!in_block) continue;
    if (key != "cache") {
      keys.push_back(key);
      continue;
    }
    for (const auto& entry : *value.as_object()) {
      keys.push_back("cache." + entry.first);
    }
    break;
  }
  return keys;
}

TEST(FailoverRows, EveryRowKindPrintsTheSameCounterBlock) {
  harness::ShardSpec shard;
  shard.fleet = recovery_crash_row().fleet;
  shard.cores = 2;
  const Json shard_row = first_row(harness::shard_json(
      tcp_table(), {harness::run_sharded_fleet(shard, tcp_table())}));
  const Json& core_block = shard_row.find("per_core")->as_array()->front();
  const Json recovery_row = first_row(harness::recovery_json(
      tcp_table(),
      {harness::run_recovery(recovery_crash_row(), tcp_table())}));
  const Json lb_row = first_row(harness::lb_json(
      lb_table(), {harness::run_lb(lb_crash_row(), lb_table())}));

  const std::vector<std::string> want = {
      "packets_sampled",       "scheduled_sampled", "handshake_sampled",
      "dropped_in_churn",      "bursts",            "slow_packets",
      "churns",                "cache.lookups",     "cache.hits",
      "cache.misses",          "cache.stale_hits",  "cache.unkeyed",
      "cache.unmatched_scans", "cache.rules_examined",
      "cache.hit_ratio",       "cache.stale_ratio", "cache.cost_us"};
  EXPECT_EQ(counter_keys(shard_row), want);
  EXPECT_EQ(counter_keys(core_block), want);
  EXPECT_EQ(counter_keys(recovery_row), want);
  EXPECT_EQ(counter_keys(lb_row), want);
}

TEST(FailoverRows, LbCrashRowMeetsBothConservationIdentities) {
  const harness::LbResult r = harness::run_lb(lb_crash_row(), lb_table());
  EXPECT_GT(r.lost_packets, 0u);  // the crash really cost packets
  EXPECT_EQ(r.spec.packets,
            r.scheduled_sampled + r.dropped_in_churn + r.lost_packets);
  EXPECT_EQ(r.packets_sampled, r.scheduled_sampled + r.handshake_sampled);
  EXPECT_EQ(r.bursts, r.spec.packets);  // batch 1: one burst per packet
  EXPECT_EQ(r.churns, 0u);              // LB rows never churn
  EXPECT_EQ(r.cache.lookups, r.packets_sampled);  // every frame classified
}

// One table type prices both tiers, so the kind is what keeps a TCP table
// off an LB row (it would drop the second wire leg) and vice versa.
TEST(FailoverRows, EachRowRejectsTheOtherTiersTable) {
  EXPECT_THROW(harness::run_lb(lb_crash_row(), tcp_table()),
               std::invalid_argument);
  EXPECT_THROW(harness::run_recovery(recovery_crash_row(), lb_table()),
               std::invalid_argument);
}

// The recovery row, driven by hand exactly as run_recovery drives it, so
// the world is still at hand after the run.
TEST(FailoverRows, RecoveryFalloutMatchesThePerFamilySums) {
  const harness::RecoverySpec rs = recovery_crash_row();
  const harness::FleetSpec& spec = rs.fleet;
  const auto world = fleet_detail::make_world(spec, spec.connections);
  for (net::Host* h : {&world->client(), &world->server()}) {
    h->set_tcp_keepalive(rs.keepalive_idle_us, rs.keepalive_intvl_us,
                         rs.keepalive_probes);
  }
  const std::vector<fleet_detail::CoreWork> work =
      fleet_detail::split_schedule(
          fleet_detail::build_schedule(spec),
          std::vector<std::uint32_t>(spec.connections, 0), 1);
  driver::Plan plan;
  plan.row = "recovery fallout reference";
  plan.work = &work.front();
  plan.packets = spec.packets;
  plan.chaos = rs.chaos;
  plan.pricer.costs = &tcp_table();
  const driver::Run run = driver::drive(driver::pair(*world), plan);

  // The sums the recovery family read off its world before the shared
  // harvest existed.
  net::Host& client = world->client();
  net::Host& server = world->server();
  const Fallout& f = run.fallout;
  EXPECT_EQ(f.connect_failures, client.tcp()->connect_failures());
  EXPECT_EQ(f.keepalive_probes_sent, client.tcp()->keepalive_probes_sent());
  EXPECT_EQ(f.keepalive_reaps, client.tcp()->keepalive_reaps());
  EXPECT_EQ(f.rst_sent, server.tcp()->rst_sent());
  EXPECT_EQ(f.blackout_drops, world->wire().blackout_drops());
  EXPECT_EQ(f.frames_to_dead,
            server.frames_to_dead() + client.frames_to_dead());
  EXPECT_EQ(f.purged_events,
            server.purged_events() + client.purged_events());
  EXPECT_EQ(f.incarnations, server.incarnation());
  // Not vacuous: the reboot bumped the server, whose new incarnation
  // answered the old connections' frames.
  EXPECT_EQ(f.incarnations, 2u);
  EXPECT_GT(f.rst_sent + f.frames_to_dead, 0u);
  EXPECT_GT(f.keepalive_probes_sent, 0u);

  // The harness row reports exactly this harvest.
  EXPECT_EQ(harness::run_recovery(rs, tcp_table()).fallout, f);
}

// The LB crash row, driven by hand exactly as run_lb drives it.
TEST(FailoverRows, LbFalloutMatchesThePerFamilySums) {
  const harness::LbSpec s = lb_crash_row();
  net::LbWorldOptions opts;
  opts.backends = s.backends;
  opts.tcp_conn_buckets = fleet_detail::conn_bucket_count(s.connections);
  opts.lb.track_scheme = s.track_scheme;
  opts.lb.track_capacity = s.track_capacity;
  opts.lb.track_costs = s.track_costs;
  opts.lb.maglev_table_size = s.maglev_table_size;
  opts.lb.health = s.health;
  net::LbWorld world(s.config, s.config, s.config, opts);
  world.lb().start_health_checks();
  const harness::FleetSpec fleet{.label = s.label,
                                 .kind = net::StackKind::kLb,
                                 .config = s.config,
                                 .connections = s.connections,
                                 .packets = s.packets,
                                 .batch = s.batch,
                                 .zipf_s = s.zipf_s,
                                 .seed = s.seed,
                                 .params = s.params};
  const std::vector<fleet_detail::CoreWork> work =
      fleet_detail::split_schedule(
          fleet_detail::build_schedule(fleet),
          std::vector<std::uint32_t>(s.connections, 0), 1);
  driver::Plan plan;
  plan.row = "lb fallout reference";
  plan.work = &work.front();
  plan.packets = s.packets;
  plan.chaos = s.chaos;
  plan.horizon_slack_us =
      (s.health.recover_threshold + 1) * s.health.interval_us;
  plan.pricer.costs = &lb_table();
  const driver::Run run = driver::drive(driver::tier(world), plan);

  // The sums the LB family read off its world before the shared harvest
  // existed: every backend, every backend wire, plus the client side.
  std::uint64_t rst = 0;
  std::uint64_t to_dead = world.client().frames_to_dead();
  std::uint64_t purged = world.client().purged_events();
  std::uint64_t dark = world.client_wire().blackout_drops();
  std::uint32_t incarnations = 0;
  for (std::size_t i = 0; i < s.backends; ++i) {
    rst += world.backend(i).tcp()->rst_sent();
    to_dead += world.backend(i).frames_to_dead();
    purged += world.backend(i).purged_events();
    dark += world.backend_wire(i).blackout_drops();
    incarnations += world.backend(i).incarnation();
  }
  const Fallout& f = run.fallout;
  EXPECT_EQ(f.rst_sent, rst);
  EXPECT_EQ(f.frames_to_dead, to_dead);
  EXPECT_EQ(f.purged_events, purged);
  EXPECT_EQ(f.blackout_drops, dark);
  EXPECT_EQ(f.incarnations, incarnations);
  // The client-side counters the LB rows did not report before v2.
  const proto::Tcp& ctcp = *world.client().tcp();
  EXPECT_EQ(f.connect_failures, ctcp.connect_failures());
  EXPECT_EQ(f.keepalive_probes_sent, ctcp.keepalive_probes_sent());
  EXPECT_EQ(f.keepalive_reaps, ctcp.keepalive_reaps());
  // Not vacuous: one backend crashed and rebooted.
  EXPECT_EQ(f.incarnations, s.backends + 1);
  EXPECT_GT(f.purged_events + f.frames_to_dead, 0u);

  EXPECT_EQ(harness::run_lb(s, lb_table()).fallout, f);
}

}  // namespace
}  // namespace l96
