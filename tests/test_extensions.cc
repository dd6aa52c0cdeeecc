// Tests for the extensions beyond the paper's implemented system:
// connection-time cloning specialization, layout ablation invariants,
// and cross-configuration determinism of the whole harness.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace l96 {
namespace {

using code::StackConfig;

TEST(ConnectClone, ShrinksTraceOnlyWithCloning) {
  StackConfig base = StackConfig::Clo();
  StackConfig conn = StackConfig::Clo();
  conn.clone_at_connect = true;
  auto r_base =
      harness::run_config(net::StackKind::kTcpIp, base, base);
  auto r_conn =
      harness::run_config(net::StackKind::kTcpIp, conn, conn);
  EXPECT_LT(r_conn.client.instructions, r_base.client.instructions);
  EXPECT_LT(r_conn.client.static_hot_words, r_base.client.static_hot_words);

  // Without cloning the flag is inert.
  StackConfig out = StackConfig::Out();
  StackConfig out_conn = StackConfig::Out();
  out_conn.clone_at_connect = true;
  auto r_out = harness::run_config(net::StackKind::kTcpIp, out, out);
  auto r_out_conn =
      harness::run_config(net::StackKind::kTcpIp, out_conn, out_conn);
  EXPECT_EQ(r_out.client.instructions, r_out_conn.client.instructions);
}

TEST(ConnectClone, ComposesWithPathInlining) {
  StackConfig all = StackConfig::All();
  StackConfig all_conn = StackConfig::All();
  all_conn.clone_at_connect = true;
  auto r_all = harness::run_config(net::StackKind::kTcpIp, all, all);
  auto r_conn =
      harness::run_config(net::StackKind::kTcpIp, all_conn, all_conn);
  EXPECT_LT(r_conn.client.instructions, r_all.client.instructions);
  EXPECT_LE(r_conn.te_us, r_all.te_us + 0.5);
}

TEST(ConnectClone, DoesNotChangeFunctionalBehaviour) {
  StackConfig conn = StackConfig::All();
  conn.clone_at_connect = true;
  net::World w(net::StackKind::kTcpIp, conn, conn);
  w.start(10);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  EXPECT_EQ(w.client_roundtrips(), 10u);
}

TEST(LayoutAblation, PessimalNeverBeatsBipartite) {
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const auto scfg = kind == net::StackKind::kRpc
                          ? StackConfig::All()
                          : StackConfig::Clo();
    auto bip =
        harness::run_config(kind, StackConfig::Clo(), scfg);
    auto bad =
        harness::run_config(kind, StackConfig::Bad(), scfg);
    EXPECT_GT(bad.client.tp_us, 1.5 * bip.client.tp_us);
  }
}

TEST(LayoutAblation, RandomBetweenBipartiteAndPessimal) {
  StackConfig rnd = StackConfig::Clo();
  rnd.layout = code::LayoutKind::kRandom;
  auto r_rnd = harness::run_config(net::StackKind::kTcpIp, rnd, rnd);
  auto r_bip = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Clo(), StackConfig::Clo());
  auto r_bad = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Bad(), StackConfig::Bad());
  EXPECT_GE(r_rnd.client.tp_us, r_bip.client.tp_us * 0.98);
  EXPECT_LT(r_rnd.client.tp_us, r_bad.client.tp_us);
}

TEST(LayoutAblation, MicroPositioningReducesReplacementMisses) {
  // The trace-driven optimizer should at least beat the shuffled link order
  // on its own objective (cold replacement misses).
  StackConfig micro = StackConfig::Clo();
  micro.layout = code::LayoutKind::kMicroPosition;
  auto r_micro =
      harness::run_config(net::StackKind::kTcpIp, micro, micro);
  auto r_out = harness::run_config(net::StackKind::kTcpIp,
                                   StackConfig::Out(), StackConfig::Out());
  EXPECT_LE(r_micro.client.cold.icache.repl_misses,
            r_out.client.cold.icache.repl_misses);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  auto run = [] {
    return harness::run_config(net::StackKind::kTcpIp, StackConfig::All(),
                               StackConfig::All());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.client.instructions, b.client.instructions);
  EXPECT_EQ(a.client.steady.cycles(), b.client.steady.cycles());
  EXPECT_EQ(a.client.cold.icache.misses, b.client.cold.icache.misses);
  EXPECT_DOUBLE_EQ(a.te_us, b.te_us);
}

TEST(Determinism, ClientAndServerTracesSimilarLength) {
  const auto r = harness::run_config(net::StackKind::kTcpIp,
                                     StackConfig::Std(), StackConfig::Std());
  // Symmetric ping-pong: both sides do nearly the same work.
  const double ratio = static_cast<double>(r.server.instructions) /
                       static_cast<double>(r.client.instructions);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

}  // namespace
}  // namespace l96
