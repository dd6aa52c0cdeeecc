// Example: bulk TCP transfer over a lossy wire.
//
// Drives the TCP implementation outside the ping-pong latency harness:
// the client streams a payload through the sliding window while the wire
// randomly drops frames; the server accumulates bytes.  Demonstrates
// sliding-window transmission, retransmission with backoff, congestion
// window dynamics, and exactly-once in-order delivery.
//
// Usage: tcp_bulk_transfer [bytes] [drop_every_n_frames]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "net/world.h"

using namespace l96;

namespace {

// A sink that counts and checks the received byte stream.
class BulkSink final : public proto::TcpUpper {
 public:
  void tcp_receive(proto::TcpConn&, xk::Message& payload) override {
    for (std::uint8_t b : payload.view()) {
      if (b != static_cast<std::uint8_t>(received_ * 131 + 7)) ++corrupt_;
      ++received_;
    }
  }
  void tcp_established(proto::TcpConn&) override { established_ = true; }
  std::uint64_t received() const { return received_; }
  std::uint64_t corrupt() const { return corrupt_; }
  bool established() const { return established_; }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t corrupt_ = 0;
  bool established_ = false;
};

class BulkSource final : public proto::TcpUpper {
 public:
  explicit BulkSource(std::uint64_t total) : total_(total) {}
  void tcp_established(proto::TcpConn& c) override { pump(c); }
  void tcp_receive(proto::TcpConn&, xk::Message&) override {}
  void pump(proto::TcpConn& c) {
    // Hand the whole payload to TCP; the window paces transmission.
    std::vector<std::uint8_t> chunk;
    while (sent_ < total_) {
      chunk.push_back(static_cast<std::uint8_t>(sent_ * 131 + 7));
      ++sent_;
      if (chunk.size() == 4096 || sent_ == total_) {
        c.send(chunk);
        chunk.clear();
      }
    }
  }

 private:
  std::uint64_t total_;
  std::uint64_t sent_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                       : 64 * 1024;
  const int drop_every = argc > 2 ? std::atoi(argv[2]) : 40;

  net::World world(net::StackKind::kTcpIp, code::StackConfig::All(),
                   code::StackConfig::All());

  BulkSink sink;
  BulkSource source(total);
  world.server().tcp()->listen(9000, &sink);
  auto* conn =
      world.client().tcp()->connect(world.server().address().ip, 9001, 9000,
                                    &source);

  // Periodic frame loss: arm one drop every `drop_every` carried frames.
  std::uint64_t next_check = 0;
  world.events().run_until(
      [&] {
        if (sink.received() >= total) return true;
        if (drop_every > 0 && world.wire().frames_carried() >= next_check) {
          next_check = world.wire().frames_carried() + drop_every;
          world.wire().drop_next(1);
        }
        return false;
      },
      600'000'000);  // 10 min sim time

  const double secs = world.events().now() / 1e6;
  std::printf("bulk transfer: %llu/%llu bytes in %.3f s simulated "
              "(%.1f kB/s)\n",
              (unsigned long long)sink.received(),
              (unsigned long long)total, secs,
              sink.received() / secs / 1000.0);
  std::printf("  frames on wire: %llu  dropped: %llu\n",
              (unsigned long long)world.wire().frames_carried(),
              (unsigned long long)world.wire().frames_dropped());
  std::printf("  retransmissions: %llu  cwnd: %u  ssthresh: %u\n",
              (unsigned long long)conn->retransmits(), conn->cwnd(),
              conn->ssthresh());
  std::printf("  stream integrity: %s (%llu corrupt bytes)\n",
              sink.corrupt() == 0 ? "OK" : "FAILED",
              (unsigned long long)sink.corrupt());
  return sink.received() == total && sink.corrupt() == 0 ? 0 : 1;
}
