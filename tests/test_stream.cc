// Tests for the activation-stream measurement API (harness::measure_stream
// + sim::Machine::run_stream + MissProfiler carryover attribution): a burst
// of size 1 reproduces the single-activation steady replay byte for byte,
// later positions amortize (monotone non-increasing cost), explicit
// heterogeneous sequences match the homogeneous shorthand, and per-position
// profiler rows conserve against both the section totals and the
// per-position RunResults.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness/experiment.h"

namespace l96 {
namespace {

using harness::MeasureSpec;
using harness::SideMeasurement;
using harness::StreamMeasurement;
using harness::StreamSpec;

// One shared capture: streams replay the client activation of an ALL/ALL
// TCP/IP world (the capture owns the registry the trace refers to, so it
// must outlive every spec derived from it).
MeasureSpec client_spec() {
  static const harness::Capture cap = harness::capture_world(
      net::StackKind::kTcpIp, code::StackConfig::All(),
      code::StackConfig::All(),
      harness::MachineParams::defaults().warmup_roundtrips);
  return harness::side_spec(cap, harness::Side::kClient,
                            code::StackConfig::All(),
                            harness::MachineParams::defaults());
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.icache.accesses, b.icache.accesses);
  EXPECT_EQ(a.icache.misses, b.icache.misses);
  EXPECT_EQ(a.icache.repl_misses, b.icache.repl_misses);
  EXPECT_EQ(a.dcache_combined.accesses, b.dcache_combined.accesses);
  EXPECT_EQ(a.dcache_combined.misses, b.dcache_combined.misses);
  EXPECT_EQ(a.bcache.misses, b.bcache.misses);
}

TEST(StreamTest, PositionZeroIsByteIdenticalToSteadyReplay) {
  const MeasureSpec spec = client_spec();
  const SideMeasurement side = harness::measure_side(spec);

  StreamSpec sspec;
  sspec.base = spec;
  sspec.burst = 1;
  const StreamMeasurement one = harness::measure_stream(sspec);
  ASSERT_EQ(one.positions.size(), 1u);
  expect_same_run(side.steady, one.positions[0].steady);
  EXPECT_DOUBLE_EQ(side.tp_us, one.positions[0].tp_us);

  // Position 0 is unchanged by the burst that follows it: the later
  // activations run after the measured window.
  sspec.burst = 4;
  const StreamMeasurement four = harness::measure_stream(sspec);
  ASSERT_EQ(four.positions.size(), 4u);
  expect_same_run(side.steady, four.positions[0].steady);
  EXPECT_DOUBLE_EQ(side.tp_us, four.positions[0].tp_us);
}

TEST(StreamTest, PositionsAmortizeMonotonically) {
  StreamSpec sspec;
  sspec.base = client_spec();
  sspec.burst = 4;
  const StreamMeasurement m = harness::measure_stream(sspec);
  ASSERT_EQ(m.positions.size(), 4u);
  for (std::size_t i = 1; i < m.positions.size(); ++i) {
    EXPECT_LE(m.positions[i].tp_us, m.positions[i - 1].tp_us)
        << "position " << i << " priced above its predecessor";
    EXPECT_LE(m.positions[i].steady.icache.misses,
              m.positions[i - 1].steady.icache.misses);
  }
  // The scrub between bursts is what position 0 pays for; with no scrub
  // inside the burst the amortization must be strict.
  EXPECT_LT(m.steady_us(), m.first_us());
  EXPECT_DOUBLE_EQ(m.first_us(), m.positions.front().tp_us);
  EXPECT_DOUBLE_EQ(m.steady_us(), m.positions.back().tp_us);
}

TEST(StreamTest, ExplicitSequenceMatchesHomogeneousBurst) {
  const MeasureSpec spec = client_spec();
  StreamSpec burst;
  burst.base = spec;
  burst.burst = 3;
  StreamSpec explicit_seq;
  explicit_seq.base = spec;
  explicit_seq.activations = {spec.trace, spec.trace, spec.trace};

  const StreamMeasurement a = harness::measure_stream(burst);
  const StreamMeasurement b = harness::measure_stream(explicit_seq);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    expect_same_run(a.positions[i].steady, b.positions[i].steady);
    EXPECT_DOUBLE_EQ(a.positions[i].tp_us, b.positions[i].tp_us);
  }
}

TEST(StreamTest, CarryoverRowsConserveAgainstTotalsAndRunResults) {
  StreamSpec sspec;
  sspec.base = client_spec();
  sspec.base.profile_misses = true;
  sspec.burst = 3;
  const StreamMeasurement m = harness::measure_stream(sspec);
  ASSERT_NE(m.miss, nullptr);

  for (const sim::ProfiledCache c :
       {sim::ProfiledCache::kICache, sim::ProfiledCache::kDCache}) {
    const sim::MissProfile::Section& s = m.miss->cache(c);
    ASSERT_EQ(s.positions.size(), 3u);

    // Per-position rows sum to the section totals.
    std::uint64_t misses = 0, repl = 0, stalls = 0, carry = 0;
    for (const auto& row : s.positions) {
      misses += row.misses;
      repl += row.repl_misses;
      stalls += row.stall_cycles;
      carry += row.carryover_hits;
    }
    EXPECT_EQ(misses, s.misses);
    EXPECT_EQ(repl, s.repl_misses);
    EXPECT_EQ(stalls, s.stall_cycles);
    EXPECT_EQ(carry, s.carryover_hits);

    // Owner rows carry the same carryover total.
    std::uint64_t owner_carry = 0;
    for (const auto& row : s.owners) owner_carry += row.carryover_hits;
    EXPECT_EQ(owner_carry, s.carryover_hits);

    // Nothing precedes position 0, so nothing can carry over into it.
    EXPECT_EQ(s.positions[0].carryover_hits, 0u);
  }

  // Position 0 misses on the blocks the scrub evicted; position 1 hits
  // them again — the whole point of the burst — so i-cache carryover at
  // position 1 must be strictly positive.
  EXPECT_GT(m.miss->icache.positions[1].carryover_hits, 0u);

  // Per-position profiler rows match the per-position RunResults (the
  // memory system resets its stats at each boundary).
  for (std::size_t i = 0; i < m.positions.size(); ++i) {
    EXPECT_EQ(m.miss->icache.positions[i].misses,
              m.positions[i].steady.icache.misses)
        << "i-cache position " << i;
    EXPECT_EQ(m.miss->dcache.positions[i].misses,
              m.positions[i].steady.dcache_reads.misses)
        << "d-cache position " << i;
  }
}

TEST(StreamTest, SingleActivationProfileHasOnePositionAndNoCarryover) {
  StreamSpec sspec;
  sspec.base = client_spec();
  sspec.base.profile_misses = true;
  sspec.burst = 1;
  const StreamMeasurement m = harness::measure_stream(sspec);
  ASSERT_NE(m.miss, nullptr);
  EXPECT_EQ(m.miss->icache.positions.size(), 1u);
  EXPECT_EQ(m.miss->icache.carryover_hits, 0u);
  EXPECT_EQ(m.miss->dcache.carryover_hits, 0u);
}

TEST(StreamTest, RejectsMalformedSpecs) {
  StreamSpec sspec;
  sspec.base = client_spec();
  sspec.burst = 0;
  EXPECT_THROW(harness::measure_stream(sspec), std::invalid_argument);

  sspec.burst = 1;
  sspec.activations = {sspec.base.trace, nullptr};
  EXPECT_THROW(harness::measure_stream(sspec), std::invalid_argument);

  StreamSpec no_trace;
  no_trace.base = client_spec();
  no_trace.base.trace = nullptr;
  EXPECT_THROW(harness::measure_stream(no_trace), std::invalid_argument);
}

}  // namespace
}  // namespace l96
