// Tests for the unified runner API (harness/runner.h): the run() overloads
// and their emitted sections, the shared worker pool, and the out_path
// plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/runner.h"

namespace l96 {
namespace {

using harness::BurstCostTable;
using harness::FleetSpec;
using harness::Outcome;
using harness::RecoveryRunSpec;
using harness::ShardRunSpec;
using harness::SoakRunSpec;
using harness::SoakSpec;

const BurstCostTable& tcp_table() {
  static const BurstCostTable table = harness::measure_burst_costs(
      net::StackKind::kTcpIp, code::StackConfig::All(), 2);
  return table;
}

FleetSpec fleet_spec(std::uint64_t seed) {
  FleetSpec spec;
  spec.label = "runner-test";
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.connections = 6;
  spec.packets = 48;
  spec.batch = 2;
  spec.zipf_s = 1.1;
  spec.seed = seed;
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.cache_capacity = 8;
  spec.churn_every = 16;
  return spec;
}

TEST(RunIndexedJobsTest, RunsEveryJobAndReportsWorkers) {
  std::vector<std::atomic<int>> hits(64);
  const std::size_t used = harness::run_indexed_jobs(
      64, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 4u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(harness::run_indexed_jobs(0, 4, [](std::size_t) {}), 0u);
}

TEST(RunIndexedJobsTest, RethrowsFirstJobError) {
  EXPECT_THROW(harness::run_indexed_jobs(
                   4, 2,
                   [](std::size_t i) {
                     if (i == 2) throw std::runtime_error("job failed");
                   }),
               std::runtime_error);
}

TEST(ResolveWorkersTest, ZeroPicksHardwareFlooredAtTwo) {
  EXPECT_GE(harness::resolve_workers(0), 2u);
  EXPECT_EQ(harness::resolve_workers(7), 7u);
}

TEST(RunnerTest, OutcomeCarriesTheFamilySection) {
  ShardRunSpec fs;
  fs.common.workers = 2;
  fs.rows = {{.fleet = fleet_spec(3)}, {.fleet = fleet_spec(4)}};
  fs.costs = tcp_table();
  const Outcome fleet = harness::run(fs);
  ASSERT_EQ(fleet.shard.size(), 2u);
  EXPECT_EQ(fleet.schema, "l96.shard.v2");
  EXPECT_TRUE(fleet.ok);
  EXPECT_EQ(fleet.section.dump(),
            harness::shard_json(tcp_table(), fleet.shard).dump());

  RecoveryRunSpec rs;
  rs.rows.resize(1);
  rs.rows[0].fleet = fleet_spec(5);
  rs.rows[0].fleet.churn_every = 0;
  rs.costs = tcp_table();
  const Outcome rec = harness::run(rs);
  ASSERT_EQ(rec.recovery.size(), 1u);
  EXPECT_EQ(rec.schema, "l96.recovery.v2");
  // Chaos-free recovery must still match the 1-core fleet row.
  EXPECT_EQ(rec.recovery[0].fleet.sample_digest,
            harness::run_sharded_fleet({.fleet = rs.rows[0].fleet},
                                       tcp_table())
                .sample_digest);

  SoakSpec soak;
  soak.roundtrips = 200;
  soak.plan.seed = 7;
  soak.plan.rates[0].drop = 0.005;
  soak.plan.rates[1].drop = 0.005;
  soak.plan.start_after_frames = 4;
  SoakRunSpec ss;
  ss.rows = {soak};
  const Outcome o = harness::run(ss);
  ASSERT_EQ(o.soak.size(), 1u);
  EXPECT_EQ(o.soak[0].summary(), harness::run_soak(soak).summary());
  EXPECT_EQ(o.ok, o.soak[0].ok());
  EXPECT_EQ(o.schema, "l96.soak.v1");
}

TEST(RunnerTest, OutPathWritesSection) {
  const std::string path = "bench/out/test_runner_section.json";
  ShardRunSpec rs;
  rs.common.workers = 1;
  rs.common.out_path = path;
  rs.rows = {{.fleet = fleet_spec(11)}};
  rs.costs = tcp_table();
  const Outcome o = harness::run(rs);
  EXPECT_EQ(o.out_path, path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), o.section.dump() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace l96
