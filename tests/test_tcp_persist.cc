// Tests for TCP's persist state: zero-window stall, periodic window probes,
// and resumption when the window reopens.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "net/world.h"

namespace l96 {
namespace {

class PersistSink final : public proto::TcpUpper {
 public:
  void tcp_receive(proto::TcpConn&, xk::Message& m) override {
    received += m.length();
    const auto view = m.view();
    bytes.insert(bytes.end(), view.begin(), view.end());
  }
  std::uint64_t received = 0;
  std::vector<std::uint8_t> bytes;  ///< every delivered byte, in order
};

class PersistSource final : public proto::TcpUpper {
 public:
  void tcp_established(proto::TcpConn& c) override { established = &c; }
  void tcp_receive(proto::TcpConn&, xk::Message&) override {}
  proto::TcpConn* established = nullptr;
};

class TcpPersist : public ::testing::Test {
 protected:
  TcpPersist()
      : world(net::StackKind::kTcpIp, code::StackConfig::Std(),
              code::StackConfig::Std()) {
    world.server().tcp()->listen(9100, &sink);
    conn = world.client().tcp()->connect(world.server().address().ip, 9101,
                                         9100, &source);
    world.events().advance_by(2'000'000);
  }

  net::World world;
  PersistSink sink;
  PersistSource source;
  proto::TcpConn* conn = nullptr;
};

TEST_F(TcpPersist, ZeroWindowBlocksTransmission) {
  ASSERT_EQ(conn->state(), proto::TcpState::kEstablished);
  // Drain one exchange so the client learns the server's window, then
  // clamp the server's advertised window to zero.
  std::vector<std::uint8_t> byte(1, 0xAB);
  conn->send(byte);
  world.events().advance_by(2'000'000);
  ASSERT_EQ(sink.received, 1u);

  world.server().tcp()->set_receive_window_override(0);
  // Force an advertisement of the zero window: the next data exchange's ACK
  // carries it.
  conn->send(byte);
  world.events().advance_by(2'000'000);

  // Now the client believes the window is closed: new data must wait.
  const auto received_before = sink.received;
  std::vector<std::uint8_t> blocked(64, 0xCD);
  conn->send(blocked);
  world.events().advance_by(400'000);  // less than a persist interval burst
  EXPECT_LE(sink.received, received_before + 1);  // at most probe bytes
}

TEST_F(TcpPersist, ProbesAreSentWhileWindowClosed) {
  std::vector<std::uint8_t> byte(1, 1);
  conn->send(byte);
  world.events().advance_by(2'000'000);
  world.server().tcp()->set_receive_window_override(0);
  conn->send(byte);
  world.events().advance_by(2'000'000);

  conn->send(std::vector<std::uint8_t>(64, 2));
  world.events().advance_by(10'000'000);
  EXPECT_GT(conn->window_probes(), 0u);
}

TEST_F(TcpPersist, ReopeningWindowResumesTransfer) {
  std::vector<std::uint8_t> byte(1, 1);
  conn->send(byte);
  world.events().advance_by(2'000'000);
  world.server().tcp()->set_receive_window_override(0);
  conn->send(byte);
  world.events().advance_by(2'000'000);
  const auto base = sink.received;

  conn->send(std::vector<std::uint8_t>(128, 7));
  world.events().advance_by(3'000'000);
  ASSERT_LT(sink.received, base + 128);  // stalled

  // Window reopens: the next probe's ACK advertises it and the transfer
  // completes.
  world.server().tcp()->set_receive_window_override(~0u);
  world.events().advance_by(30'000'000);
  EXPECT_GE(sink.received, base + 128);
}

TEST_F(TcpPersist, PersistDoesNotFireOnOpenWindow) {
  std::vector<std::uint8_t> data(256, 5);
  conn->send(data);
  world.events().advance_by(5'000'000);
  EXPECT_EQ(conn->window_probes(), 0u);
  EXPECT_EQ(sink.received, 256u);
}

// The send buffer under everything that moves its edges: several MSS
// against a 700-byte window (so every ACK is partial), a lost frame and
// its retransmission, then a zero window and persist probes.  The stream
// must arrive in order and exactly once, and the buffer must end empty
// with its acknowledged bytes compacted away.
TEST_F(TcpPersist, SendBufferSurvivesPartialAcksLossAndProbes) {
  ASSERT_EQ(conn->state(), proto::TcpState::kEstablished);
  const std::uint32_t mss = world.client().tcp()->params().mss;
  std::vector<std::uint8_t> stream(5 * mss + 123);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>(i % 251);
  }
  world.server().tcp()->set_receive_window_override(700);
  conn->send(std::span<const std::uint8_t>(stream).first(3 * mss));
  conn->send(std::span<const std::uint8_t>(stream).subspan(3 * mss));
  EXPECT_EQ(conn->send_buffer().size(), stream.size());

  ASSERT_TRUE(world.events().run_until([&] { return sink.received >= 2 * mss; },
                                       10'000'000));
  EXPECT_LT(conn->send_buffer().size(), stream.size());  // partial ACKs

  world.wire().drop_next(1);
  ASSERT_TRUE(world.events().run_until([&] { return conn->retransmits() > 0; },
                                       10'000'000));

  world.server().tcp()->set_receive_window_override(0);
  ASSERT_TRUE(world.events().run_until(
      [&] { return conn->window_probes() > 0; }, 30'000'000));
  EXPECT_LT(sink.received, stream.size());

  world.server().tcp()->set_receive_window_override(~0u);
  ASSERT_TRUE(world.events().run_until(
      [&] {
        return sink.received >= stream.size() && conn->bytes_unacked() == 0;
      },
      60'000'000));
  EXPECT_EQ(sink.bytes, stream);
  EXPECT_EQ(conn->send_buffer().size(), 0u);
  EXPECT_EQ(conn->send_buffer().head(), 0u);
}

}  // namespace
}  // namespace l96
