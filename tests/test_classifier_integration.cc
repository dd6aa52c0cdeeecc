// Integration tests for the path-inlining packet classifier: fast-path
// prediction on real frames, slow-path fallback on mismatches.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/world.h"
#include "protocols/stack_code.h"
#include "protocols/wire_format.h"

namespace l96 {
namespace {

TEST(ClassifierIntegration, AllTcpPingPongFramesMatchFastPath) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::All(),
               code::StackConfig::All());
  w.start(20);
  ASSERT_TRUE(w.run_until_roundtrips(20));
  EXPECT_GT(w.client().front_end().hits(), 20u);
  EXPECT_EQ(w.client().front_end().misses(), 0u);
  EXPECT_EQ(w.server().front_end().misses(), 0u);
}

TEST(ClassifierIntegration, AllRpcPingPongFramesMatchFastPath) {
  net::World w(net::StackKind::kRpc, code::StackConfig::All(),
               code::StackConfig::All());
  w.start(10);
  ASSERT_TRUE(w.run_until_roundtrips(10));
  EXPECT_GT(w.client().front_end().hits(), 9u);
  EXPECT_EQ(w.client().front_end().misses(), 0u);
}

TEST(ClassifierIntegration, NoClassificationWithoutPathInlining) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.start(5);
  ASSERT_TRUE(w.run_until_roundtrips(5));
  EXPECT_EQ(w.client().front_end().hits() + w.client().front_end().misses(),
            0u);
}

TEST(ClassifierIntegration, FragmentedIpTakesSlowPath) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::All(),
               code::StackConfig::All());
  w.start(5);
  ASSERT_TRUE(w.run_until_roundtrips(5));
  // Push a fragmented datagram through IP: the fragments must be rejected
  // by the classifier (fast path handles only unfragmented TCP).
  const auto misses_before = w.server().front_end().misses();
  xk::Message big(w.client().arena(), 64, 4000);
  w.client().ip()->send(w.server().address().ip, 200, big);
  w.events().advance_by(200'000);
  EXPECT_GT(w.server().front_end().misses(), misses_before);
}

TEST(ClassifierIntegration, RpcNackTakesSlowPath) {
  net::World w(net::StackKind::kRpc, code::StackConfig::All(),
               code::StackConfig::All());
  w.start(3);
  ASSERT_TRUE(w.run_until_roundtrips(3));
  // A multi-fragment request produces fragments with nfrags > 1: those
  // frames must not match the single-fragment fast path.
  w.server().mselect()->register_service(5, [&](xk::Message& req) {
    xk::Message r(w.server().arena(), 0, 0);
    (void)req;
    return r;
  });
  const auto misses_before = w.server().front_end().misses();
  xk::Message req(w.client().arena(), 128, 3000);
  bool replied = false;
  w.client().mselect()->call(5, req, [&](xk::Message&) { replied = true; });
  w.events().advance_by(30'000'000);
  EXPECT_TRUE(replied);
  EXPECT_GT(w.server().front_end().misses(), misses_before);
}

TEST(ClassifierIntegration, SlowPathLowersToStandalonePlacements) {
  // A captured activation bracketed by slow-path markers must execute from
  // the cold-segment standalone placements, not the composite.
  const harness::Capture cap =
      harness::capture_world(net::StackKind::kTcpIp, code::StackConfig::All(),
                             code::StackConfig::All());
  auto& reg = cap.world->client().registry();

  // Take the captured fast-path trace, wrap it in slow-path markers, and
  // lower both variants under the same PIN image.
  code::PathTrace fast = cap.traces.client;
  code::PathTrace slow;
  slow.events.push_back(
      {code::EventKind::kMarker, code::kInvalidFn, 0,
       code::Marker::kSlowPathBegin, 0});
  slow.events.insert(slow.events.end(), fast.events.begin(),
                     fast.events.end());
  slow.events.push_back(
      {code::EventKind::kMarker, code::kInvalidFn, 0,
       code::Marker::kSlowPathEnd, 0});

  code::ImageBuilder b(reg, code::StackConfig::All());
  b.set_profile(fast);
  b.declare_path(proto::tcpip_output_path(reg));
  b.declare_path(proto::tcpip_input_path(reg));
  const code::CodeImage img = b.build();
  code::Lowering lower(reg, img, code::StackConfig::All());

  const auto mt_fast = lower.lower(fast);
  const auto mt_slow = lower.lower(slow);

  // Slow path re-pays the call overhead the composites eliminated.
  EXPECT_GT(mt_slow.size(), mt_fast.size());
  // And executes from the cold segment (addresses past the hot end).
  const auto cold_instrs = [&](const sim::MachineTrace& t) {
    std::size_t n = 0;
    for (const auto& in : t) {
      if (in.pc > img.hot_end() && in.pc < 0x8000'0000) ++n;
    }
    return n;
  };
  EXPECT_GT(cold_instrs(mt_slow), cold_instrs(mt_fast) + 1000);
}

}  // namespace
}  // namespace l96
