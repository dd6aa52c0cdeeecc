// Timer hygiene: tearing a stack down while retransmission and reassembly
// timers are armed must cancel every event — the EventManager queue drains
// to zero and no partial state survives.  These are the leak classes the
// chaos soak's teardown check guards against.
#include <gtest/gtest.h>

#include "net/world.h"
#include "protocols/wire_format.h"

namespace l96 {
namespace {

TEST(TimerHygiene, TcpTeardownMidRetransmit) {
  net::World world(net::StackKind::kTcpIp, code::StackConfig::Std(),
                   code::StackConfig::Std());
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(5));
  // Lose the next data segment so the client's retransmission timer is
  // armed and the stream is mid-recovery ...
  world.wire().drop_next(1);
  world.events().advance_by(50'000);  // rexmt pending, not yet fired
  // ... then rip every connection out from under it on both hosts.
  for (proto::TcpConn* c : world.client().tcp()->connections()) {
    world.client().tcp()->destroy(c);
  }
  for (proto::TcpConn* c : world.server().tcp()->connections()) {
    world.server().tcp()->destroy(c);
  }
  EXPECT_EQ(world.client().tcp()->open_connections(), 0u);
  EXPECT_EQ(world.server().tcp()->open_connections(), 0u);
  // Whatever was in flight lands on closed stacks; nothing may re-arm.
  ASSERT_TRUE(world.events().run_until(
      [&] { return world.events().pending() == 0; }, 60'000'000));
  EXPECT_EQ(world.events().pending(), 0u);
  EXPECT_TRUE(world.wire().conserved());
}

TEST(TimerHygiene, GracefulCloseUnderContinuingFaults) {
  // Close while the fault schedule keeps biting: FIN/ACK losses are
  // recovered and the close still converges with an empty queue.
  net::World world(net::StackKind::kTcpIp, code::StackConfig::Std(),
                   code::StackConfig::Std());
  net::FaultPlan plan;
  plan.seed = 21;
  plan.start_after_frames = 4;
  plan.rates[0] = {.drop = 0.05, .corrupt = 0.05};
  plan.rates[1] = {.drop = 0.05, .corrupt = 0.05};
  world.set_fault_plan(plan);
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(20, 120'000'000));
  world.client().tcptest()->set_close_on_peer_close(true);
  world.server().tcptest()->set_close_on_peer_close(true);
  world.client().tcptest()->connection()->close();
  ASSERT_TRUE(world.events().run_until(
      [&] { return world.events().pending() == 0; }, 600'000'000));
  EXPECT_EQ(world.events().pending(), 0u);
  EXPECT_TRUE(world.wire().conserved());
}

TEST(TimerHygiene, ChanFlushMidRetransmit) {
  net::World world(net::StackKind::kRpc, code::StackConfig::Std(),
                   code::StackConfig::All());
  world.start(1);
  ASSERT_TRUE(world.run_until_roundtrips(1));
  world.server().mselect()->register_service(
      50, [&](xk::Message&) { return xk::Message(world.server().arena(), 0, 0); });
  // Lose the request so the channel sits busy with its retransmission
  // timer armed.
  world.wire().drop_next(1);
  bool replied = false;
  xk::Message req(world.client().arena(), 96, 0);
  world.client().mselect()->call(50, req, [&](xk::Message&) { replied = true; });
  world.events().advance_by(20'000);  // timer armed, first retry not yet due
  std::size_t busy = 0;
  for (std::uint16_t ch = 0; ch < world.client().chan()->nchans(); ++ch) {
    if (world.client().chan()->busy(ch)) ++busy;
  }
  ASSERT_EQ(busy, 1u);

  world.client().chan()->flush();
  for (std::uint16_t ch = 0; ch < world.client().chan()->nchans(); ++ch) {
    EXPECT_FALSE(world.client().chan()->busy(ch));
  }
  ASSERT_TRUE(world.events().run_until(
      [&] { return world.events().pending() == 0; }, 60'000'000));
  EXPECT_EQ(world.events().pending(), 0u);
  EXPECT_FALSE(replied);  // the call was abandoned, not answered late
}

TEST(TimerHygiene, BlastFlushMidReassembly) {
  net::World world(net::StackKind::kRpc, code::StackConfig::Std(),
                   code::StackConfig::All());
  world.start(1);
  ASSERT_TRUE(world.run_until_roundtrips(1));
  const std::size_t base_pending = world.events().pending();

  // First fragment of a 3-fragment message; the rest never arrives.
  const auto& cmac = world.client().address().mac;
  const auto& smac = world.server().address().mac;
  std::vector<std::uint8_t> f;
  f.insert(f.end(), cmac.begin(), cmac.end());
  f.insert(f.end(), smac.begin(), smac.end());
  f.push_back(0x88);
  f.push_back(0xB5);
  std::array<std::uint8_t, proto::Blast::kHeaderBytes> bh{};
  proto::put_be32(bh, 0, 0xAB01);
  proto::put_be16(bh, 4, 0);
  proto::put_be16(bh, 6, 3);
  proto::put_be32(bh, 8, 2500);
  std::vector<std::uint8_t> payload(1024, 0x33);
  proto::put_be16(bh, 14,
                  proto::inet_checksum(
                      payload, proto::checksum_accumulate(
                                   std::span(bh.data(), 14))));
  f.insert(f.end(), bh.begin(), bh.end());
  f.insert(f.end(), payload.begin(), payload.end());
  world.client().deliver(f);

  EXPECT_EQ(world.client().blast()->reassemblies_pending(), 1u);
  EXPECT_EQ(world.events().pending(), base_pending + 1);  // its timeout

  world.client().blast()->flush();
  EXPECT_EQ(world.client().blast()->reassemblies_pending(), 0u);
  EXPECT_EQ(world.events().pending(), base_pending);
}

TEST(TimerHygiene, IpReassemblyExpiresAbandonedFragments) {
  net::World world(net::StackKind::kTcpIp, code::StackConfig::Std(),
                   code::StackConfig::Std());
  world.start(2);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  ASSERT_TRUE(world.events().run_until(
      [&] { return world.events().pending() == 0; }, 60'000'000));

  // A middle IP fragment (MF set) whose siblings never arrive.
  const auto& cmac = world.client().address().mac;
  const auto& smac = world.server().address().mac;
  std::vector<std::uint8_t> f;
  f.insert(f.end(), cmac.begin(), cmac.end());
  f.insert(f.end(), smac.begin(), smac.end());
  f.push_back(0x08);
  f.push_back(0x00);
  std::array<std::uint8_t, proto::kIpHeaderBytes> ih{};
  ih[0] = 0x45;
  proto::put_be16(ih, 2, proto::kIpHeaderBytes + 64);  // total length
  proto::put_be16(ih, 4, 0x7777);                      // datagram id
  proto::put_be16(ih, 6, 0x2000);                      // MF, offset 0
  ih[8] = 32;                                          // ttl
  ih[9] = 6;                                           // proto = TCP
  proto::put_be32(ih, 12, world.server().address().ip);
  proto::put_be32(ih, 16, world.client().address().ip);
  proto::put_be16(ih, 10, proto::inet_checksum(ih));
  f.insert(f.end(), ih.begin(), ih.end());
  f.resize(f.size() + 64, 0x44);
  world.client().deliver(f);

  EXPECT_EQ(world.client().ip()->reassemblies_pending(), 1u);
  EXPECT_EQ(world.events().pending(), 1u);  // the expiry timer

  const auto expired = world.client().ip()->reassemblies_expired();
  world.events().advance_by(600'000);  // past the 500 ms reassembly timeout
  EXPECT_EQ(world.client().ip()->reassemblies_expired(), expired + 1);
  EXPECT_EQ(world.client().ip()->reassemblies_pending(), 0u);
  EXPECT_EQ(world.events().pending(), 0u);
}

}  // namespace
}  // namespace l96
