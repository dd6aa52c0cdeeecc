// TCP functional tests: handshake, reliable delivery under loss and
// corruption, close sequences, window/congestion behaviour.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/world.h"

namespace l96 {
namespace {

class TcpWorld : public ::testing::Test {
 protected:
  TcpWorld()
      : world(net::StackKind::kTcpIp, code::StackConfig::Std(),
              code::StackConfig::Std()) {}

  proto::TcpConn* client_conn() { return world.client().tcptest()->connection(); }
  proto::Tcp& ctcp() { return *world.client().tcp(); }
  proto::Tcp& stcp() { return *world.server().tcp(); }

  net::World world;
};

TEST_F(TcpWorld, HandshakeEstablishesBothSides) {
  world.start(1);
  ASSERT_TRUE(world.events().run_until(
      [&] {
        return client_conn() != nullptr &&
               client_conn()->state() == proto::TcpState::kEstablished;
      },
      5'000'000));
  EXPECT_EQ(ctcp().open_connections(), 1u);
  EXPECT_EQ(stcp().open_connections(), 1u);
}

TEST_F(TcpWorld, PingPongCompletesRoundtrips) {
  world.start(25);
  ASSERT_TRUE(world.run_until_roundtrips(25));
  EXPECT_EQ(world.client().tcptest()->roundtrips(), 25u);
  EXPECT_EQ(client_conn()->retransmits(), 0u);  // clean network
}

TEST_F(TcpWorld, SynLossRecoveredByRetransmission) {
  world.wire().drop_next(1);  // the SYN
  world.start(3);
  ASSERT_TRUE(world.run_until_roundtrips(3, 30'000'000));
  EXPECT_GT(client_conn()->retransmits(), 0u);
}

TEST_F(TcpWorld, DataLossRecoveredExactlyOnce) {
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(5));
  world.wire().drop_next(1);  // next data segment vanishes
  ASSERT_TRUE(world.run_until_roundtrips(20, 60'000'000));
  // Roundtrip count is exact: no duplicate delivery inflated it.
  EXPECT_EQ(world.client().tcptest()->roundtrips(), 20u);
  EXPECT_GT(client_conn()->retransmits(), 0u);
}

TEST_F(TcpWorld, CorruptionDetectedByChecksum) {
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(5));
  const auto bad_before =
      ctcp().bad_checksum_drops() + stcp().bad_checksum_drops() +
      world.client().ip()->bad_checksum_drops() +
      world.server().ip()->bad_checksum_drops();
  world.wire().corrupt_next(1);
  ASSERT_TRUE(world.run_until_roundtrips(15, 60'000'000));
  EXPECT_GT(ctcp().bad_checksum_drops() + stcp().bad_checksum_drops() +
                world.client().ip()->bad_checksum_drops() +
                world.server().ip()->bad_checksum_drops(),
            bad_before);
  EXPECT_EQ(world.client().tcptest()->roundtrips(), 15u);
}

TEST_F(TcpWorld, RepeatedLossStillConverges) {
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  for (int i = 0; i < 5; ++i) {
    world.wire().drop_next(1);
    ASSERT_TRUE(world.run_until_roundtrips(2 + 2 * (i + 1), 120'000'000));
  }
  EXPECT_GE(client_conn()->retransmits(), 1u);
}

TEST_F(TcpWorld, CongestionWindowOpensWithTraffic) {
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  const auto cwnd_early = client_conn()->cwnd();
  ASSERT_TRUE(world.run_until_roundtrips(40));
  EXPECT_GT(client_conn()->cwnd(), cwnd_early);
}

TEST_F(TcpWorld, TimeoutCollapsesCongestionWindow) {
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(30));
  const auto cwnd_before = client_conn()->cwnd();
  world.wire().drop_next(2);  // segment + its first retransmission
  ASSERT_TRUE(world.run_until_roundtrips(40, 120'000'000));
  EXPECT_GT(cwnd_before, world.client().tcp()->params().mss);
  // After loss, cwnd restarted from one segment and is still recovering.
  EXPECT_LE(client_conn()->cwnd(), cwnd_before);
}

TEST_F(TcpWorld, CloseHandshakeReachesClosedStates) {
  world.start(5);
  ASSERT_TRUE(world.run_until_roundtrips(5));
  auto* conn = client_conn();
  conn->close();
  world.events().run_until(
      [&] {
        return conn->state() == proto::TcpState::kFinWait2 ||
               conn->state() == proto::TcpState::kTimeWait;
      },
      10'000'000);
  EXPECT_TRUE(conn->state() == proto::TcpState::kFinWait2 ||
              conn->state() == proto::TcpState::kTimeWait);
}

TEST_F(TcpWorld, RstSentForUnknownPort) {
  world.start(2);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  const auto rst_before = stcp().rst_sent();
  // A fresh client connection to a port nobody listens on.
  world.client().tcptest()->start(world.server().address().ip, 6000, 7777, 1);
  world.events().advance_by(1'000'000);
  EXPECT_GT(stcp().rst_sent(), rst_before);
}

TEST_F(TcpWorld, DemuxMapUsesOneEntryCache) {
  world.start(30);
  ASSERT_TRUE(world.run_until_roundtrips(30));
  const auto& stats = ctcp().connection_map().stats();
  EXPECT_GT(stats.cache_hits, 20u);  // packet-train locality
}

TEST_F(TcpWorld, OpenConnectionsViaMapTraversal) {
  world.start(2);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  EXPECT_EQ(ctcp().open_connections(), 1u);
  // Traversal walks the non-empty bucket list, not all 64 buckets.
  const auto& stats = ctcp().connection_map().stats();
  EXPECT_GT(stats.traversals, 0u);
  EXPECT_LT(stats.buckets_walked, 10u * stats.traversals);
}

TEST_F(TcpWorld, HeaderPredictionCostsOnBidirectional) {
  // With header prediction enabled the trace grows slightly (the predictor
  // runs and fails on bi-directional traffic) — Section 2.3.
  auto hp = code::StackConfig::Std();
  hp.header_prediction = true;
  const auto r1 = harness::run_config(net::StackKind::kTcpIp,
                                      code::StackConfig::Std(),
                                      code::StackConfig::Std());
  const auto r2 = harness::run_config(net::StackKind::kTcpIp, hp, hp);
  EXPECT_GT(r2.client.instructions, r1.client.instructions);
  EXPECT_LT(r2.client.instructions, r1.client.instructions + 40);
}

TEST_F(TcpWorld, WindowUpdateThresholdBothModes) {
  // The 33% shift/add threshold approximates the 35% mul/div one: both
  // worlds complete the same ping-pong without behavioural divergence.
  auto nodiv = code::StackConfig::Std();
  ASSERT_TRUE(nodiv.avoid_int_division);
  auto withdiv = code::StackConfig::Std();
  withdiv.avoid_int_division = false;
  net::World w1(net::StackKind::kTcpIp, nodiv, nodiv);
  net::World w2(net::StackKind::kTcpIp, withdiv, withdiv);
  w1.start(20);
  w2.start(20);
  ASSERT_TRUE(w1.run_until_roundtrips(20));
  ASSERT_TRUE(w2.run_until_roundtrips(20));
  EXPECT_EQ(w1.client_roundtrips(), w2.client_roundtrips());
  // Threshold values are within a few percent of each other:
  // (w>>2)+(w>>4) = 31.25% vs 35%.
  const std::uint32_t w = 8192;
  const std::uint32_t approx = (w >> 2) + (w >> 4);
  const std::uint32_t exact = w * 35 / 100;
  EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
              0.12 * exact);
}

TEST_F(TcpWorld, RetransmitBackoffFollowsExponentialSchedule) {
  // Pin the retransmission backoff schedule in virtual time: with the
  // default TcpParams (rto 200ms, cap 3.2s) an unanswered segment must
  // retransmit at exactly 200/400/800/1600/3200/3200 ms intervals —
  // doubling per timeout, clamped at max_rto_us.
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(3));
  ASSERT_TRUE(world.events().run_until(
      [&] { return client_conn()->bytes_unacked() == 0; }, 5'000'000));
  world.events().run_until([] { return false; }, 100'000);  // drain stray ACKs

  world.server().crash();  // every segment now goes unanswered

  proto::TcpConn* c = client_conn();
  const std::uint64_t base = c->retransmits();
  const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint64_t t0 = world.events().now();
  c->send(payload);

  const std::uint64_t expected_deltas[] = {200'000,   400'000,   800'000,
                                           1'600'000, 3'200'000, 3'200'000};
  std::uint64_t prev = t0;
  std::uint64_t k = 0;
  for (const std::uint64_t want : expected_deltas) {
    ++k;
    ASSERT_TRUE(world.events().run_until(
        [c, base, k] { return c->retransmits() >= base + k; }, 10'000'000));
    EXPECT_EQ(world.events().now() - prev, want) << "retransmission " << k;
    prev = world.events().now();
  }
  EXPECT_EQ(c->state(), proto::TcpState::kEstablished);
}

namespace closewait {

class Sink final : public proto::TcpUpper {
 public:
  void tcp_receive(proto::TcpConn&, xk::Message& m) override {
    bytes += m.length();
  }
  std::uint64_t bytes = 0;
};

}  // namespace closewait

TEST_F(TcpWorld, CloseWaitStillFlushesBufferedData) {
  // A half-closed connection owns its send stream: after the peer's FIN
  // puts us in kCloseWait, send() must still transmit (the old output()
  // gate only flushed data in kEstablished, deadlocking this case — the
  // FIN path waits for all_data_sent, which never came).
  world.start(1);
  closewait::Sink client_sink;
  closewait::Sink server_sink;
  world.server().tcp()->listen(9000, &server_sink);
  proto::TcpConn* cc = world.client().tcp()->connect(
      world.server().address().ip, 12'000, 9000, &client_sink);
  ASSERT_TRUE(world.events().run_until(
      [cc] { return cc->state() == proto::TcpState::kEstablished; },
      5'000'000));

  // Server closes first: client lands in kCloseWait, server in kFinWait2.
  proto::TcpConn* sc = nullptr;
  for (auto* c : stcp().connections()) {
    if (c->remote_port() == 12'000) sc = c;
  }
  ASSERT_NE(sc, nullptr);
  // The client observes kEstablished one half-RTT before the server does;
  // close() from kSynRcvd would be a no-op.
  ASSERT_TRUE(world.events().run_until(
      [sc] { return sc->state() == proto::TcpState::kEstablished; },
      5'000'000));
  sc->close();
  ASSERT_TRUE(world.events().run_until(
      [cc] { return cc->state() == proto::TcpState::kCloseWait; },
      5'000'000));

  // The half-open direction still delivers.
  const std::uint8_t payload[16] = {};
  cc->send(payload);
  ASSERT_TRUE(world.events().run_until(
      [&server_sink] { return server_sink.bytes >= 16; }, 5'000'000));

  // And the orderly close completes from kCloseWait through kLastAck.
  cc->close();
  ASSERT_TRUE(world.events().run_until(
      [cc] { return cc->state() == proto::TcpState::kClosed; }, 5'000'000));
}

}  // namespace
}  // namespace l96
