// google-benchmark microbenchmarks over the real primitives: Internet
// checksum, message header operations, the event queue and demux map,
// cache-simulator throughput, trace lowering, and a full ping-pong
// roundtrip of each stack.
#include <benchmark/benchmark.h>

#include "harness/experiment.h"
#include "protocols/wire_format.h"
#include "sim/machine.h"
#include "xkernel/event.h"
#include "xkernel/map.h"
#include "xkernel/message.h"

using namespace l96;

namespace {

void BM_InetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::inet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InetChecksum)->Arg(20)->Arg(64)->Arg(1460);

void BM_MessagePushPop(benchmark::State& state) {
  xk::SimAlloc arena;
  xk::Message m(arena, 256, 64);
  std::array<std::uint8_t, 20> hdr{};
  for (auto _ : state) {
    m.push(hdr);
    m.pop(hdr);
  }
}
BENCHMARK(BM_MessagePushPop);

// One TCP-like timer cycle — arm a retransmit timer, re-arm it (cancel +
// schedule), fire the next event — with `depth` far-future timers pending,
// as a fleet world's keepalives are.
void BM_EventCycle(benchmark::State& state) {
  xk::EventManager em;
  std::uint64_t fired = 0;
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < depth; ++i) {
    em.schedule_at(~std::uint64_t{0} / 2 + i * 977, [&fired] { ++fired; });
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto armed =
        em.schedule_in(200 + i % 7, [&fired] { ++fired; });
    em.cancel(armed);
    em.schedule_in(1 + i % 5, [&fired] { ++fired; });
    em.advance_to_next();
    ++i;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCycle)->Arg(2)->Arg(10'000);

// Demux lookups that miss the one-entry cache: 25k connections over 32k
// buckets (a sharded fleet core), resolved in a shuffled order with no
// capture running.
void BM_MapResolveCacheMiss(benchmark::State& state) {
  constexpr std::size_t kFlows = 25'000;
  xk::SimAlloc arena;
  xk::Map<std::size_t> map(arena, 32'768);
  std::vector<xk::MapKey> keys;
  for (std::size_t i = 0; i < kFlows; ++i) {
    keys.push_back(
        xk::MapKey{.hi = 0x0A000001, .lo = (10'000 + i) << 16 | 7000});
    map.bind(keys.back(), i);
  }
  std::vector<std::size_t> order(kFlows);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < kFlows; ++i) order[i] = i;
  for (std::size_t i = kFlows - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.resolve(keys[order[n]]));
    n = n + 1 == kFlows ? 0 : n + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapResolveCacheMiss);

void BM_CacheSimThroughput(benchmark::State& state) {
  sim::MemorySystem mem;
  std::uint64_t pc = 0x10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.ifetch(pc));
    pc += 4;
    if (pc > 0x40000) pc = 0x10000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimThroughput);

void BM_TraceReplay(benchmark::State& state) {
  sim::MachineTrace t;
  for (int i = 0; i < 4096; ++i) {
    t.push_back({0x10000 + 4ull * i,
                 i % 4 == 0 ? sim::InstrClass::kLoad : sim::InstrClass::kIAlu,
                 0x80000000ull + 8ull * i, false});
  }
  sim::Machine m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.run(t));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TraceReplay);

void BM_PingPongRoundtrip(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? net::StackKind::kTcpIp
                                        : net::StackKind::kRpc;
  net::World world(kind, code::StackConfig::Std(), code::StackConfig::All());
  world.start(~std::uint64_t{0});
  world.run_until_roundtrips(4);
  std::uint64_t target = 4;
  for (auto _ : state) {
    ++target;
    world.run_until_roundtrips(target);
  }
  state.SetLabel(state.range(0) == 0 ? "TCP/IP" : "RPC");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PingPongRoundtrip)->Arg(0)->Arg(1);

void BM_LowerTrace(benchmark::State& state) {
  const code::StackConfig cfg = code::StackConfig::All();
  const harness::Capture cap =
      harness::capture_world(net::StackKind::kTcpIp, cfg, cfg);  // once
  const harness::MeasureSpec spec = harness::side_spec(
      cap, harness::Side::kClient, cfg, harness::MachineParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::lower_trace(spec));
  }
}
BENCHMARK(BM_LowerTrace);

}  // namespace

BENCHMARK_MAIN();
