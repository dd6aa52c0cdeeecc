// Deeper TCP state-machine tests: close variants, reconnection, listener
// behaviour, sequence-space arithmetic at wraparound.
#include <gtest/gtest.h>

#include "net/world.h"

namespace l96 {
namespace {

class TcpStates : public ::testing::Test {
 protected:
  TcpStates()
      : world(net::StackKind::kTcpIp, code::StackConfig::Std(),
              code::StackConfig::Std()) {}

  proto::TcpConn* conn() { return world.client().tcptest()->connection(); }

  void establish(std::uint64_t roundtrips = 3) {
    world.start(roundtrips);
    ASSERT_TRUE(world.run_until_roundtrips(roundtrips));
  }

  net::World world;
};

TEST_F(TcpStates, ActiveCloseWalksFinWait) {
  establish();
  auto* c = conn();
  c->close();
  // FIN goes out: FIN_WAIT_1 until the ACK.
  EXPECT_EQ(c->state(), proto::TcpState::kFinWait1);
  world.events().advance_by(2'000'000);
  EXPECT_TRUE(c->state() == proto::TcpState::kFinWait2 ||
              c->state() == proto::TcpState::kTimeWait);
}

TEST_F(TcpStates, PassiveCloseEntersCloseWaitThenLastAck) {
  establish();
  auto* c = conn();
  c->close();
  world.events().advance_by(2'000'000);
  // The server learned about the FIN and sits in CLOSE_WAIT until its app
  // closes too.
  std::size_t close_wait = 0;
  proto::TcpConn* server_conn = nullptr;
  const_cast<xk::Map<proto::TcpConn*>&>(
      world.server().tcp()->connection_map())
      .for_each([&](const xk::MapKey&, proto::TcpConn*& sc) {
        ++close_wait;
        server_conn = sc;
      });
  ASSERT_EQ(close_wait, 1u);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->state(), proto::TcpState::kCloseWait);

  server_conn->close();
  EXPECT_EQ(server_conn->state(), proto::TcpState::kLastAck);
  world.events().advance_by(2'000'000);
  EXPECT_EQ(server_conn->state(), proto::TcpState::kClosed);
}

TEST_F(TcpStates, FinLossRecovered) {
  establish();
  auto* c = conn();
  world.wire().drop_next(1);  // the FIN
  c->close();
  world.events().advance_by(30'000'000);  // let the rexmt timer fire
  EXPECT_TRUE(c->state() == proto::TcpState::kFinWait2 ||
              c->state() == proto::TcpState::kTimeWait)
      << to_string(c->state());
  EXPECT_GT(c->retransmits(), 0u);
}

TEST_F(TcpStates, SecondConnectionAfterClose) {
  establish();
  conn()->close();
  world.events().advance_by(3'000'000);
  // A new connection from a different client port completes and ping-pongs.
  world.client().tcptest()->start(world.server().address().ip, 5002, 5001,
                                  5);
  ASSERT_TRUE(world.events().run_until(
      [&] { return world.client().tcptest()->roundtrips() >= 5; },
      30'000'000));
}

TEST_F(TcpStates, ListenerAcceptsMultipleConnections) {
  establish(2);
  world.client().tcptest()->start(world.server().address().ip, 5010, 5001,
                                  1);
  world.events().advance_by(5'000'000);
  // Both connections live in the server's demux map.
  EXPECT_EQ(world.server().tcp()->open_connections(), 2u);
}

TEST_F(TcpStates, DuplicateSynGetsSynAckAgain) {
  // Drop the SYN|ACK: the client retransmits its SYN, the server (in
  // SYN_RCVD) answers again, and the connection still establishes.
  world.wire().drop_next(2);  // SYN... and SYN|ACK of the retry path
  world.start(2);
  ASSERT_TRUE(world.run_until_roundtrips(2, 60'000'000));
}

TEST_F(TcpStates, SegmentCountsBalanced) {
  establish(20);
  const auto sent = world.client().tcp()->segments_sent();
  const auto rcvd = world.client().tcp()->segments_received();
  // Clean ping-pong: sends and receives stay close.
  EXPECT_NEAR(static_cast<double>(sent), static_cast<double>(rcvd),
              0.2 * static_cast<double>(sent));
}

TEST_F(TcpStates, StateNamesComplete) {
  using proto::TcpState;
  for (auto s :
       {TcpState::kClosed, TcpState::kListen, TcpState::kSynSent,
        TcpState::kSynRcvd, TcpState::kEstablished, TcpState::kFinWait1,
        TcpState::kFinWait2, TcpState::kCloseWait, TcpState::kClosing,
        TcpState::kLastAck, TcpState::kTimeWait}) {
    EXPECT_STRNE(to_string(s), "?");
  }
}

}  // namespace
}  // namespace l96
