// Tests for the capture machinery: one receive activation per roundtrip,
// the transmit split point, and trace well-formedness.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.h"
#include "protocols/stack_code.h"

namespace l96 {
namespace {

/// One steady-state TCP/IP roundtrip captured with STD on both hosts.
harness::Capture tcp_std() {
  return harness::capture_world(net::StackKind::kTcpIp,
                                code::StackConfig::Std(),
                                code::StackConfig::Std());
}

TEST(Capture, OneActivationHasBalancedCallsAndReturns) {
  const harness::Capture cap = tcp_std();
  const auto& t = cap.traces.client;
  ASSERT_FALSE(t.empty());
  int depth = 0;
  int min_depth = 0;
  for (const auto& ev : t.events) {
    if (ev.kind == code::EventKind::kCall) ++depth;
    if (ev.kind == code::EventKind::kReturn) --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);      // balanced
  EXPECT_EQ(min_depth, 0);  // never returns past the activation root
}

TEST(Capture, ActivationRootIsTheReceiveInterrupt) {
  const harness::Capture cap = tcp_std();
  const auto& t = cap.traces.client;
  const auto lance_intr =
      cap.world->client().registry().require("lance_intr");
  ASSERT_EQ(t.events.front().kind, code::EventKind::kCall);
  EXPECT_EQ(t.events.front().fn, lance_intr);
}

TEST(Capture, SplitFollowsTheTransmitKick) {
  const harness::Capture cap = tcp_std();
  const std::size_t split = cap.traces.client_split;
  const auto& t = cap.traces.client;
  ASSERT_GT(split, 0u);
  ASSERT_LE(split, t.events.size());
  // The event just before the split is the LANCE kick block.
  const auto& ev = t.events[split - 1];
  EXPECT_EQ(ev.kind, code::EventKind::kBlock);
  EXPECT_EQ(ev.block,
            static_cast<code::BlockId>(proto::blk::kLanceSendKick));
}

TEST(Capture, PostSplitContainsOverlappedWork) {
  const harness::Capture cap = tcp_std();
  const auto& t = cap.traces.client;
  const auto refresh = cap.world->client().registry().require("msg_refresh");
  bool refresh_after_split = false;
  for (std::size_t i = cap.traces.client_split; i < t.events.size(); ++i) {
    if (t.events[i].kind == code::EventKind::kCall &&
        t.events[i].fn == refresh) {
      refresh_after_split = true;
    }
  }
  // The message refresh is overlapped with communication (Section 2.2.5).
  EXPECT_TRUE(refresh_after_split);
}

TEST(Capture, EveryBlockEventFollowsItsFunction) {
  const harness::Capture cap = harness::capture_world(
      net::StackKind::kRpc, code::StackConfig::Std(), code::StackConfig::All());
  const auto& t = cap.traces.client;
  std::vector<code::FnId> stack;
  for (const auto& ev : t.events) {
    switch (ev.kind) {
      case code::EventKind::kCall:
        stack.push_back(ev.fn);
        break;
      case code::EventKind::kReturn:
        if (!stack.empty()) stack.pop_back();
        break;
      case code::EventKind::kBlock:
        ASSERT_FALSE(stack.empty());
        EXPECT_EQ(ev.fn, stack.back());
        break;
      default:
        break;
    }
  }
}

TEST(Capture, BlockIdsAreValidForTheirFunctions) {
  const harness::Capture cap = tcp_std();
  const auto& reg = cap.world->client().registry();
  for (const auto& ev : cap.traces.client.events) {
    if (ev.kind == code::EventKind::kBlock) {
      ASSERT_LT(ev.fn, reg.size());
      ASSERT_LT(ev.block, reg.fn(ev.fn).blocks.size());
    }
  }
}

TEST(Capture, DataRefsLandInDataRegions) {
  const harness::Capture cap = tcp_std();
  for (const auto& ev : cap.traces.client.events) {
    if (ev.kind == code::EventKind::kLoad ||
        ev.kind == code::EventKind::kStore) {
      EXPECT_GE(ev.addr, 0x8000'0000u) << "data ref into code space";
    }
  }
}

TEST(Capture, ErrorBlocksAbsentFromSteadyState) {
  // The captured steady-state roundtrip must not execute outlined error
  // paths (that is what makes them outlining candidates).
  const harness::Capture cap = tcp_std();
  const auto& reg = cap.world->client().registry();
  for (const auto& ev : cap.traces.client.events) {
    if (ev.kind != code::EventKind::kBlock) continue;
    const auto& b = reg.fn(ev.fn).blocks[ev.block];
    EXPECT_NE(b.cls, code::BlockClass::kError)
        << reg.fn(ev.fn).name << ":" << b.label;
  }
}

}  // namespace
}  // namespace l96
