// Pins on the measurement kernel that produces Tables 2-9: te samples
// against measure_side() as the reference, and literal numbers for three
// Table 4 rows.  A te sample replays only each side's critical prefix, so
// the reference test guards that shortcut; the literal pins catch a change
// that moves every path the same way.  A deliberate behaviour change must
// update the literals and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "net/world.h"
#include "protocols/lance.h"

namespace l96 {
namespace {

using code::StackConfig;
using harness::MachineParams;
using harness::MeasureSpec;

struct Row {
  const char* label;
  net::StackKind kind;
  StackConfig client;
  StackConfig server;
};

harness::SweepJob job_of(const Row& r, const MachineParams& params,
                         std::uint64_t samples) {
  harness::SweepJob j;
  j.label = r.label;
  j.kind = r.kind;
  j.client = r.client;
  j.server = r.server;
  j.params = params;
  j.te_sample_count = samples;
  return j;
}

// Sample k, spelled out over measure_side(): controller + client
// critical_us at seed offset 100 + 7k + server critical_us at 200 + 13k.
std::vector<double> reference_samples(const Row& r,
                                      const MachineParams& params,
                                      std::uint64_t n) {
  net::World w(r.kind, r.client, r.server);
  w.start(~std::uint64_t{0});
  const harness::CaptureResult t =
      harness::capture_traces(w, params.warmup_roundtrips);
  const double controller =
      2.0 * w.wire().params().one_way_us(proto::Lance::kMinFrame);

  MeasureSpec c;
  c.kind = r.kind;
  c.cfg = r.client;
  c.registry = &w.client().registry();
  c.trace = &t.client;
  c.split = t.client_split;
  c.params = params;
  MeasureSpec s = c;
  s.cfg = r.server;
  s.registry = &w.server().registry();
  s.trace = &t.server;
  s.split = t.server_split;

  std::vector<double> out;
  for (std::uint64_t k = 0; k < n; ++k) {
    c.seed_offset = 100 + 7 * k;
    s.seed_offset = 200 + 13 * k;
    out.push_back(controller + harness::measure_side(c).critical_us +
                  harness::measure_side(s).critical_us);
  }
  return out;
}

// Sweep and Experiment samples against the reference.
void expect_reference_samples(const Row& r) {
  const MachineParams params = MachineParams::defaults();
  constexpr std::uint64_t kSamples = 3;

  const std::vector<double> want = reference_samples(r, params, kSamples);
  harness::SweepRunner runner(2);
  const auto out = runner.run({job_of(r, params, kSamples)});
  harness::Experiment e(r.kind, r.client, r.server, params);
  const std::vector<double> serial = e.te_samples(kSamples);

  ASSERT_EQ(out[0].te_samples.size(), kSamples);
  ASSERT_EQ(serial.size(), kSamples);
  for (std::uint64_t k = 0; k < kSamples; ++k) {
    EXPECT_EQ(out[0].te_samples[k], want[k]) << "sweep sample " << k;
    EXPECT_EQ(serial[k], want[k]) << "experiment sample " << k;
  }
}

TEST(TeSampleReference, TcpipStd) {
  expect_reference_samples({"tcpip/STD", net::StackKind::kTcpIp,
                            StackConfig::Std(), StackConfig::Std()});
}

TEST(TeSampleReference, TcpipPin) {
  expect_reference_samples({"tcpip/PIN", net::StackKind::kTcpIp,
                            StackConfig::Pin(), StackConfig::Pin()});
}

TEST(TeSampleReference, RpcAll) {
  expect_reference_samples({"rpc/ALL", net::StackKind::kRpc,
                            StackConfig::All(), StackConfig::All()});
}

// --- literal pins at default params -----------------------------------------

struct Pin {
  double te_us;
  std::uint64_t client_critical_cycles;
  std::uint64_t server_critical_cycles;
  double samples[3];
};

const std::vector<harness::SweepOutcome>& pinned_rows() {
  static const std::vector<harness::SweepOutcome> out = [] {
    const MachineParams params = MachineParams::defaults();
    harness::SweepRunner runner(2);
    return runner.run(
        {job_of({"tcpip/STD", net::StackKind::kTcpIp, StackConfig::Std(),
                 StackConfig::Std()},
                params, 3),
         job_of({"tcpip/ALL", net::StackKind::kTcpIp, StackConfig::All(),
                 StackConfig::All()},
                params, 3),
         job_of({"rpc/ALL", net::StackKind::kRpc, StackConfig::All(),
                 StackConfig::All()},
                params, 3)});
  }();
  return out;
}

void expect_pin(const Pin& want, const harness::SweepOutcome& got) {
  EXPECT_EQ(got.result.te_us, want.te_us);
  EXPECT_EQ(got.result.client.critical.cycles(), want.client_critical_cycles);
  EXPECT_EQ(got.result.server.critical.cycles(), want.server_critical_cycles);
  ASSERT_EQ(got.te_samples.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(got.te_samples[k], want.samples[k]) << "sample " << k;
  }
}

TEST(KernelPins, TcpipStd) {
  expect_pin({297.20571428571429,
              7628,
              7633,
              {298.02857142857141, 296.31428571428569, 297.06857142857143}},
             pinned_rows()[0]);
}

TEST(KernelPins, TcpipAll) {
  expect_pin({280.12,
              6121,
              6150,
              {280.05142857142857, 278.8857142857143, 279.84571428571428}},
             pinned_rows()[1]);
}

TEST(KernelPins, RpcAll) {
  expect_pin({265.50857142857143,
              5619,
              4095,
              {266.46857142857141, 265.44, 265.71428571428572}},
             pinned_rows()[2]);
}

}  // namespace
}  // namespace l96
