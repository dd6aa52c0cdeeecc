#include "harness/throughput.h"

#include <vector>

namespace l96::harness {

namespace {

// A sink counting received bytes.
class CountingSink final : public proto::TcpUpper {
 public:
  void tcp_receive(proto::TcpConn&, xk::Message& m) override {
    received += m.length();
  }
  std::uint64_t received = 0;
};

class StreamSource final : public proto::TcpUpper {
 public:
  explicit StreamSource(std::uint64_t total) : total_(total) {}
  void tcp_established(proto::TcpConn& c) override {
    std::vector<std::uint8_t> chunk(4096, 0x3C);
    std::uint64_t sent = 0;
    while (sent < total_) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(4096, total_ - sent));
      c.send({chunk.data(), n});
      sent += n;
    }
  }
  void tcp_receive(proto::TcpConn&, xk::Message&) override {}

 private:
  std::uint64_t total_;
};

/// Simulated-time cap on a transfer: 10 minutes.
constexpr std::uint64_t kDeadlineUs = 600'000'000;

/// Run `world` until `pred` holds, its events run out, or virtual time
/// reaches kDeadlineUs.
template <class Pred>
void run_until_deadline(net::World& world, Pred pred) {
  const std::uint64_t now = world.events().now();
  if (now < kDeadlineUs) world.events().run_until(pred, kDeadlineUs - now);
}

}  // namespace

ThroughputResult measure_tcp_throughput(const code::StackConfig& cfg,
                                        std::uint64_t bytes,
                                        const net::FaultPlan* faults) {
  net::World world(net::StackKind::kTcpIp, cfg, cfg);
  if (faults != nullptr) world.set_fault_plan(*faults);
  CountingSink sink;
  StreamSource source(bytes);
  world.server().tcp()->listen(9000, &sink);
  auto* conn = world.client().tcp()->connect(world.server().address().ip,
                                             9001, 9000, &source);

  run_until_deadline(world, [&] { return sink.received >= bytes; });
  // Drain in-flight frames and pending ACK/retransmit events so the frame
  // counters are settled (on a clean wire, carried == delivered).
  run_until_deadline(world, [] { return false; });

  // Per-packet processing cost of this configuration, from the latency
  // experiment's steady replay.
  const ConfigResult lat = run_config(net::StackKind::kTcpIp, cfg, cfg);

  ThroughputResult r;
  r.bytes = sink.received;
  r.wire_seconds = world.events().now() / 1e6;
  r.processing_us = lat.client.tp_us;
  r.frames = world.wire().frames_carried();
  r.frames_delivered = world.wire().frames_delivered();
  r.retransmits = conn->retransmits();
  // Effective time = wire time + processing per frame on both hosts (which
  // overlaps only partially with the wire).  Each frame offered to the
  // wire — retransmissions included — cost its sender an output-side share
  // of the per-activation processing time, and each *delivered* frame cost
  // its receiver the input-side share.  On a clean wire (frames ==
  // frames_delivered) this reduces to the historical mean-tp-per-frame
  // formula; under loss, retransmitted frames now charge processing
  // instead of only wire time.
  const double mean_tp_us = (lat.client.tp_us + lat.server.tp_us) / 2.0;
  r.proc_seconds = mean_tp_us * 1e-6 *
                   (static_cast<double>(r.frames) +
                    static_cast<double>(r.frames_delivered)) /
                   2.0;
  r.kbytes_per_second =
      r.bytes / 1000.0 / (r.wire_seconds + r.proc_seconds);
  return r;
}

ThroughputResult measure_rpc_throughput(const code::StackConfig& cfg,
                                        std::uint64_t calls,
                                        std::uint64_t bytes) {
  net::World world(net::StackKind::kRpc, cfg, code::StackConfig::All());
  std::uint64_t echoed = 0;
  world.server().mselect()->register_service(20, [&](xk::Message& req) {
    xk::Message r(world.server().arena(), 0, 1);
    r.data()[0] = static_cast<std::uint8_t>(req.length() & 0xFF);
    return r;
  });

  std::uint64_t done = 0;
  std::function<void()> issue = [&] {
    if (done >= calls) return;
    xk::Message req(world.client().arena(), 128, bytes);
    world.client().mselect()->call(20, req, [&](xk::Message&) {
      echoed += bytes;
      ++done;
      issue();
    });
  };
  issue();
  run_until_deadline(world, [&] { return done >= calls; });

  const ConfigResult lat =
      run_config(net::StackKind::kRpc, cfg, code::StackConfig::All());

  ThroughputResult r;
  r.bytes = echoed;
  r.wire_seconds = world.events().now() / 1e6;
  r.processing_us = lat.client.tp_us;
  r.frames = world.wire().frames_carried();
  const double proc_seconds = lat.client.tp_us * 1e-6 * r.frames / 2.0;
  r.kbytes_per_second = r.bytes / 1000.0 / (r.wire_seconds + proc_seconds);
  return r;
}

}  // namespace l96::harness
