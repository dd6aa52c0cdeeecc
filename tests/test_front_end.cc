// Tests for the receive front end (net/front_end.h) that net::Host and the
// LB's client-facing NIC share: the capture bracket's transmit split, an
// unarmed or cancelled capture, and the guard's stale-hit verdict on both
// kinds of host.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "code/config.h"
#include "harness/experiment.h"
#include "net/front_end.h"
#include "net/lb.h"
#include "net/world.h"
#include "protocols/stack_code.h"
#include "xkernel/protocol.h"

namespace l96 {
namespace {

/// Sends every received frame `sends` times on the same NIC.
class Echo final : public xk::Protocol {
 public:
  Echo(xk::ProtoCtx& ctx, proto::Lance& nic)
      : Protocol("echo", ctx), nic_(nic) {}
  void demux(xk::Message& m) override {
    for (int i = 0; i < sends; ++i) nic_.send(m);
  }
  int sends = 0;

 private:
  proto::Lance& nic_;
};

code::CodeRegistry common_registry(const code::StackConfig& cfg) {
  code::CodeRegistry r;
  proto::register_common_code(r, cfg);
  return r;
}

/// One NIC behind a front end, with no wire and no stack above it.
class FrontEndBench : public ::testing::Test {
 protected:
  FrontEndBench() { nic_.attach(&echo_); }

  void receive() { front_.receive(frame_, nic_); }

  /// Event indices of the lance_send kicks in `t`.
  std::vector<std::size_t> kicks(const code::PathTrace& t) const {
    const code::FnId send = registry_.require("lance_send");
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      if (t.events[i].kind == code::EventKind::kBlock &&
          t.events[i].fn == send &&
          t.events[i].block == proto::blk::kLanceSendKick) {
        at.push_back(i);
      }
    }
    return at;
  }

  const code::StackConfig cfg_ = code::StackConfig::Std();
  xk::SimAlloc arena_;
  code::Recorder recorder_;
  code::CodeRegistry registry_ = common_registry(cfg_);
  xk::EventManager events_;
  xk::EventPort port_{events_, 1};
  xk::ProtoCtx ctx_{arena_, port_, recorder_, registry_, cfg_};
  proto::Lance nic_{ctx_, [](std::vector<std::uint8_t>) {}};
  Echo echo_{ctx_, nic_};
  net::FrontEnd front_{recorder_, registry_, cfg_.path_inlining,
                       code::PacketClassifier{}};
  std::vector<std::uint8_t> frame_ = std::vector<std::uint8_t>(64, 0xAB);
};

TEST_F(FrontEndBench, SplitFallsAfterTheLastKick) {
  echo_.sends = 2;
  code::PathTrace trace;
  front_.arm_capture(&trace);
  receive();
  ASSERT_TRUE(front_.capture_complete());
  // Two transmissions: the split follows the second, and the descriptor
  // and message-refresh work after it stays off the critical path.
  const std::vector<std::size_t> at = kicks(trace);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(front_.tx_split(), at.back() + 1);
  EXPECT_LT(front_.tx_split(), trace.events.size());
}

TEST_F(FrontEndBench, SplitIsTheTraceSizeWithoutAKick) {
  code::PathTrace trace;
  front_.arm_capture(&trace);
  receive();
  ASSERT_TRUE(front_.capture_complete());
  EXPECT_EQ(nic_.tx_frames(), 0u);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(front_.tx_split(), trace.events.size());
}

TEST_F(FrontEndBench, RecordsOnlyTheArmedActivation) {
  echo_.sends = 1;
  receive();  // never armed
  EXPECT_FALSE(front_.capture_complete());
  EXPECT_EQ(front_.tx_split(), 0u);

  code::PathTrace trace;
  front_.arm_capture(&trace);
  front_.cancel_capture();  // a crash drops the armed capture
  receive();
  EXPECT_TRUE(trace.empty());
  EXPECT_FALSE(front_.capture_complete());

  front_.arm_capture(&trace);
  receive();
  ASSERT_TRUE(front_.capture_complete());
  const std::vector<code::Event> first = trace.events;
  receive();  // the capture is one-shot
  EXPECT_EQ(trace.events.size(), first.size());
  EXPECT_EQ(front_.tx_split(), kicks(trace).back() + 1);
}

/// Capture the next activation at `front` (whose flow was just made
/// stale) and check the guard: the hook sees a stale, slow lookup, and the
/// whole activation sits inside the slow-path markers.
void expect_stale_hit_is_slow(xk::EventManager& events,
                              net::FrontEnd& front) {
  std::vector<bool> stale;
  std::vector<bool> slow;
  front.set_hook([&](const code::FlowLookupResult& lr, bool s) {
    stale.push_back(lr.stale);
    slow.push_back(s);
  });
  const std::uint64_t misses = front.misses();
  code::PathTrace trace;
  harness::capture_next(events, front, trace, "capture stalled");
  front.set_hook(nullptr);

  ASSERT_FALSE(stale.empty());
  EXPECT_TRUE(stale.back());
  EXPECT_TRUE(slow.back());
  EXPECT_TRUE(front.slow());
  EXPECT_EQ(front.misses(), misses + 1);
  ASSERT_GE(trace.events.size(), 2u);
  EXPECT_EQ(trace.events.front().kind, code::EventKind::kMarker);
  EXPECT_EQ(trace.events.front().addr, code::Marker::kSlowPathBegin);
  EXPECT_EQ(trace.events.back().kind, code::EventKind::kMarker);
  EXPECT_EQ(trace.events.back().addr, code::Marker::kSlowPathEnd);
}

TEST(FrontEndGuard, StaleHitOnAHostIsSlowAndBracketed) {
  const code::StackConfig pin = code::StackConfig::Pin();
  net::World w(net::StackKind::kTcpIp, pin, pin);
  w.server().enable_flow_cache(code::FlowCacheScheme::kLru, 8);
  w.start(1'000);
  ASSERT_TRUE(w.run_until_roundtrips(5));

  code::FlowCache& cache = *w.server().front_end().flow_cache();
  const std::uint32_t tuple[] = {w.client().address().ip,
                                 net::World::kTcpClientPort,
                                 net::World::kTcpServerPort};
  cache.invalidate(cache.key_spec().key_of_values(tuple));
  expect_stale_hit_is_slow(w.events(), w.server().front_end());
}

TEST(FrontEndGuard, StaleHitOnTheLbIsSlowAndBracketed) {
  const code::StackConfig pin = code::StackConfig::Pin();
  net::LbWorldOptions opts;
  opts.backends = 2;
  net::LbWorld w(pin, pin, pin, opts);
  w.start(1'000);
  ASSERT_TRUE(w.run_until_roundtrips(5));

  for (std::size_t b = 0; b < w.backend_count(); ++b) {
    w.lb().conn_track().invalidate_path(static_cast<int>(b));
  }
  expect_stale_hit_is_slow(w.events(), w.lb().front_end());
}

}  // namespace
}  // namespace l96
