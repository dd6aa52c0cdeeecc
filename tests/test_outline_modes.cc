// Tests for the outlining disciplines: conservative (annotation-based, the
// paper's approach) vs profile-aggressive (the comparator it argues
// against).
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "protocols/stack_code.h"

namespace l96 {
namespace {

using code::OutlineMode;
using code::StackConfig;

StackConfig aggressive(StackConfig base) {
  base.outline_mode = OutlineMode::kProfileAggressive;
  return base;
}

TEST(OutlineModes, AggressiveProducesDenserHotPath) {
  auto cons = harness::run_config(net::StackKind::kTcpIp, StackConfig::Out(),
                                  StackConfig::Out());
  auto aggr = harness::run_config(net::StackKind::kTcpIp,
                                  aggressive(StackConfig::Out()),
                                  aggressive(StackConfig::Out()));
  // Everything the profile did not cover moves out of line: the hot
  // segment can only shrink.
  EXPECT_LT(aggr.client.static_hot_words, cons.client.static_hot_words);
  // On the profiled workload itself, aggressive costs at most a handful of
  // boundary misses.
  EXPECT_LE(aggr.client.cold.icache.misses,
            cons.client.cold.icache.misses + 10);
}

TEST(OutlineModes, AggressivePunishesUnprofiledBlocks) {
  // Lower a trace that executes a block the profile missed (a header-
  // prediction variant): under aggressive outlining that block now lives
  // out of line and costs extra control transfers.
  const harness::Capture cap = harness::capture_world(
      net::StackKind::kTcpIp, StackConfig::Out(), StackConfig::Out());
  auto& reg = cap.world->client().registry();

  // Build an "incomplete profile": the captured trace minus every event of
  // one executed mainline block (tcp_output's win_check).
  const auto fn = reg.require("tcp_output");
  code::PathTrace incomplete;
  for (const auto& ev : cap.traces.client.events) {
    if (ev.kind == code::EventKind::kBlock && ev.fn == fn &&
        ev.block == proto::blk::kOutWinCheck) {
      continue;
    }
    incomplete.events.push_back(ev);
  }

  auto build = [&](const code::PathTrace& profile) {
    StackConfig cfg = aggressive(StackConfig::Out());
    code::ImageBuilder b(reg, cfg);
    b.set_profile(profile);
    return b.build();
  };
  const code::CodeImage full_img = build(cap.traces.client);
  const code::CodeImage incomplete_img = build(incomplete);

  // With the complete profile the block stays inline (hot); with the
  // incomplete profile it is outlined.
  EXPECT_FALSE(
      full_img.placement(fn, false).blocks[proto::blk::kOutWinCheck].outlined);
  EXPECT_TRUE(incomplete_img.placement(fn, false)
                  .blocks[proto::blk::kOutWinCheck]
                  .outlined);

  // Executing the real trace against the incomplete-profile image pays
  // extra taken control transfers (the cold jump and back).
  StackConfig cfg = aggressive(StackConfig::Out());
  auto count_taken = [&](const code::CodeImage& img) {
    code::Lowering lower(reg, img, cfg);
    const auto mt = lower.lower(cap.traces.client);
    std::uint64_t taken = 0;
    for (const auto& in : mt) {
      if (in.cls == sim::InstrClass::kCondBranch && in.taken) ++taken;
    }
    return taken;
  };
  EXPECT_GT(count_taken(incomplete_img), count_taken(full_img));
}

TEST(OutlineModes, ConservativeIgnoresProfileGaps) {
  // The conservative discipline never outlines mainline code, profile or no
  // profile — the paper's robustness argument.
  const harness::Capture cap = harness::capture_world(
      net::StackKind::kTcpIp, StackConfig::Out(), StackConfig::Out());
  auto& reg = cap.world->client().registry();
  const auto fn = reg.require("tcp_output");

  code::PathTrace empty_profile;
  empty_profile.events.push_back(
      {code::EventKind::kCall, reg.require("lance_intr"), 0, 0, 0});

  StackConfig cfg = StackConfig::Out();
  code::ImageBuilder b(reg, cfg);
  b.set_profile(empty_profile);
  const code::CodeImage img = b.build();
  EXPECT_FALSE(
      img.placement(fn, false).blocks[proto::blk::kOutWinCheck].outlined);
  EXPECT_TRUE(
      img.placement(fn, false).blocks[proto::blk::kOutNoBuffer].outlined);
}

}  // namespace
}  // namespace l96
