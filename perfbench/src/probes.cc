#include "probes.h"

#include <map>
#include <memory>
#include <stdexcept>

#include "code/classifier.h"
#include "code/image.h"
#include "code/lower.h"
#include "harness/classify.h"
#include "harness/fleet_internal.h"
#include "net/maglev.h"
#include "protocols/rulegen.h"
#include "protocols/stack_code.h"
#include "sim/machine.h"
#include "stats.h"
#include "xkernel/event.h"
#include "xkernel/map.h"
#include "xkernel/simalloc.h"

namespace perfbench {

using namespace l96;

namespace {

/// Run `fn` inside a span called `name`; returns its host seconds.
template <typename F>
double timed(SpanRecorder& rec, const std::string& name, F&& fn) {
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(rec, name);
    fn();
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Keep a computed value alive so the timed loop cannot be elided.
volatile std::uint64_t g_sink = 0;

proto::RuleSetKind rule_kind(net::StackKind kind) {
  return kind == net::StackKind::kRpc ? proto::RuleSetKind::kRpc
                                      : proto::RuleSetKind::kTcpIp;
}

code::FlowKeySpec key_spec(net::StackKind kind) {
  return kind == net::StackKind::kRpc ? proto::rpc_flow_key_spec()
                                      : proto::tcpip_flow_key_spec();
}

/// The demux map a world's server resolves each packet's flow in, as the
/// stacks build it.  TCP/IP: the connection map, sized for the population
/// (fleet_detail::conn_bucket_count) and keyed like Tcp's connection key —
/// remote address, then local and remote port.  RPC: MSelect's service
/// map, 16 buckets keyed by procedure, whatever the population.
struct DemuxGeometry {
  std::size_t buckets;
  std::vector<xk::MapKey> keys;
};

DemuxGeometry demux_geometry(net::StackKind kind, std::uint32_t client_ip,
                             std::size_t population) {
  DemuxGeometry g;
  g.keys.reserve(population);
  if (kind == net::StackKind::kRpc) {
    constexpr std::size_t kMSelectBuckets = 16;
    g.buckets = kMSelectBuckets;
    for (std::size_t i = 0; i < population; ++i) {
      g.keys.push_back(xk::MapKey{
          .hi = 0x35E1, .lo = harness::fleet_detail::kFleetRpcProcBase + i});
    }
    return g;
  }
  g.buckets = harness::fleet_detail::conn_bucket_count(population);
  const std::uint64_t lport = harness::fleet_detail::kFleetServerPort;
  for (std::size_t i = 0; i < population; ++i) {
    const std::uint64_t rport = harness::fleet_detail::kFleetClientPortBase + i;
    g.keys.push_back(xk::MapKey{.hi = client_ip, .lo = (lport << 16) | rport});
  }
  return g;
}

struct Side {
  const CaptureSpec* cap = nullptr;
  harness::MeasureSpec spec;
};

struct CaptureState {
  std::unique_ptr<net::World> world;
  harness::CaptureResult traces;
};

/// harness.capture_ms, protocols.*_roundtrip_us; returns the live captures.
std::vector<CaptureState> probe_captures(const ProbeSpec& spec,
                                         SpanRecorder& rec,
                                         MetricValues& out) {
  std::vector<CaptureState> caps;
  std::vector<double> capture_ms;
  std::map<net::StackKind, std::vector<double>> rt_us;
  // One capture per functional configuration; a single-configuration
  // workload repeats its capture so the median has several samples.
  const std::size_t reps = spec.captures.size() == 1 ? 5 : 1;
  constexpr std::uint64_t kRoundtrips = 2000;
  for (const CaptureSpec& c : spec.captures) {
    for (std::size_t r = 0; r < reps; ++r) {
      CaptureState st;
      st.world = std::make_unique<net::World>(c.kind, c.client, c.server);
      st.world->start(~std::uint64_t{0});
      capture_ms.push_back(1e3 * timed(rec, "harness.capture_traces", [&] {
        st.traces = harness::capture_traces(*st.world,
                                            spec.params.warmup_roundtrips);
      }));
      const std::uint64_t done = st.world->client_roundtrips();
      bool ok = false;
      const double s = timed(rec, "protocols.World::run_until_roundtrips", [&] {
        ok = st.world->run_until_roundtrips(done + kRoundtrips);
      });
      if (!ok) throw std::runtime_error("roundtrip probe stalled");
      rt_us[c.kind].push_back(1e6 * s / kRoundtrips);
      if (r + 1 == reps) caps.push_back(std::move(st));
    }
  }
  out["harness.capture_ms"] = median(capture_ms);
  if (rt_us.count(net::StackKind::kTcpIp)) {
    out["protocols.tcp_roundtrip_us"] = median(rt_us[net::StackKind::kTcpIp]);
  }
  if (rt_us.count(net::StackKind::kRpc)) {
    out["protocols.rpc_roundtrip_us"] = median(rt_us[net::StackKind::kRpc]);
  }
  return caps;
}

/// harness.measure_side_ms, code.build_image_ms, code.lower_us,
/// sim.replay_ns_per_instr, sim.instructions_replayed.
void probe_sides(const ProbeSpec& spec,
                 const std::vector<CaptureState>& caps, SpanRecorder& rec,
                 MetricValues& out) {
  std::vector<Side> sides;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const CaptureSpec& c = spec.captures[i];
    const CaptureState& st = caps[i];
    for (int server = 0; server < 2; ++server) {
      Side s;
      s.cap = &c;
      s.spec.kind = c.kind;
      s.spec.cfg = server ? c.server : c.client;
      s.spec.registry = server ? &st.world->server().registry()
                               : &st.world->client().registry();
      s.spec.trace = server ? &st.traces.server : &st.traces.client;
      s.spec.split = server ? st.traces.server_split : st.traces.client_split;
      s.spec.seed_offset = static_cast<std::uint64_t>(server);
      s.spec.params = spec.params;
      sides.push_back(s);
    }
  }

  std::vector<double> measure_ms, image_ms, lower_us;
  double replay_s = 0;
  std::uint64_t replayed = 0;
  for (const Side& s : sides) {
    // The measurement kernel, at every scrub-seed variant the workload
    // measures (the sweep's te samples use the same offsets).
    for (std::uint64_t k = 0; k < s.cap->side_samples; ++k) {
      harness::MeasureSpec m = s.spec;
      if (k > 0) m.seed_offset = (m.seed_offset == 0 ? 100 + k * 7
                                                       : 200 + k * 13);
      measure_ms.push_back(1e3 * timed(rec, "harness.measure_side", [&] {
        g_sink = g_sink + harness::measure_side(m).instructions;
      }));
    }
    // Its stages, one layer at a time.
    code::CodeImage image;
    image_ms.push_back(1e3 * timed(rec, "code.build_image", [&] {
      image = harness::build_image(s.spec.kind, s.spec.cfg, *s.spec.registry,
                                   *s.spec.trace, spec.params);
    }));
    const code::Lowering lowering(*s.spec.registry, image, s.spec.cfg);
    sim::MachineTrace lowered;
    lower_us.push_back(1e6 * timed(rec, "code.Lowering::lower", [&] {
      lowered = lowering.lower(*s.spec.trace);
    }));
    sim::Machine::Options opts;
    opts.warmup_passes = spec.params.warmup_passes;
    opts.scrub_fraction = spec.params.scrub_fraction;
    opts.scrub_fraction_d = spec.params.scrub_fraction_d;
    opts.scrub_seed = spec.params.scrub_seed + s.spec.seed_offset;
    constexpr int kReplays = 8;
    replay_s += timed(rec, "sim.Machine::run", [&] {
      for (int r = 0; r < kReplays; ++r) {
        sim::Machine machine(spec.params.mem, spec.params.cpu);
        g_sink = g_sink + machine.run(lowered, opts).cycles();
      }
    });
    replayed += kReplays * (1 + opts.warmup_passes) * lowered.size();
  }
  out["harness.measure_side_ms.p50"] = percentile(measure_ms, 50);
  out["harness.measure_side_ms.p99"] = percentile(measure_ms, 99);
  out["code.build_image_ms"] = median(image_ms);
  out["code.lower_us"] = median(lower_us);
  out["sim.replay_ns_per_instr"] =
      replayed != 0 ? 1e9 * replay_s / static_cast<double>(replayed) : 0;
  out["sim.instructions_replayed"] = static_cast<double>(replayed);
}

/// The workload's frame for local flow `i` of a world: the canonical
/// real-path frame with the flow's client port (TCP/IP) or procedure
/// (RPC) patched in.
std::vector<std::uint8_t> flow_frame(net::StackKind kind, std::size_t i) {
  std::vector<std::uint8_t> f = harness::classifier_match_frame(kind);
  // The flow key's second field: the TCP source port / MSELECT procedure.
  const std::size_t off = key_spec(kind).fields.at(1).offset;
  const std::size_t base =
      kind == net::StackKind::kRpc
          ? harness::fleet_detail::kFleetRpcProcBase
          : harness::fleet_detail::kFleetClientPortBase;
  const auto v = static_cast<std::uint16_t>(base + i);
  f[off] = static_cast<std::uint8_t>(v >> 8);
  f[off + 1] = static_cast<std::uint8_t>(v & 0xFF);
  return f;
}

/// Frames of the key stream, one per drawn flow (shared by the flow-cache
/// and classifier probes).
std::vector<std::vector<std::uint8_t>> stream_frames(const ProbeSpec& spec,
                                                     std::size_t limit) {
  std::vector<std::vector<std::uint8_t>> frames;
  const std::size_t n = std::min(limit, spec.key_stream.size());
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back(flow_frame(spec.flow_kind, spec.key_stream[i]));
  }
  return frames;
}

/// code.classify_*_ns, code.flow_cache_lookup_ns.
bool probe_classifier(const ProbeSpec& spec, SpanRecorder& rec,
                      MetricValues& out, std::string* error) {
  const code::PacketClassifier cls = proto::build_scaled_classifier(
      rule_kind(spec.flow_kind), spec.rules, spec.rule_seed);
  // The linear engine costs O(rules) per frame; size its batch so the
  // probe stays well under a second even at thousands of rules.
  const std::size_t linear_n =
      std::max<std::size_t>(256, 4'000'000 / (spec.rules + 8));
  const auto frames =
      stream_frames(spec, std::max<std::size_t>(linear_n, 100'000));
  if (frames.empty()) return true;

  const std::size_t tuple_n = frames.size();
  std::uint64_t acc = 0;
  const double tuple_s =
      timed(rec, "code.PacketClassifier::classify_scan_tuple", [&] {
        for (std::size_t i = 0; i < tuple_n; ++i) {
          acc += cls.classify_scan_tuple(frames[i]).path_id.value_or(-1);
        }
      });
  const std::size_t lin_n = std::min(linear_n, frames.size());
  const double linear_s =
      timed(rec, "code.PacketClassifier::classify_scan_linear", [&] {
        for (std::size_t i = 0; i < lin_n; ++i) {
          acc += cls.classify_scan_linear(frames[i]).path_id.value_or(-1);
        }
      });
  out["code.classify_tuple_ns"] = 1e9 * tuple_s / static_cast<double>(tuple_n);
  out["code.classify_linear_ns"] = 1e9 * linear_s / static_cast<double>(lin_n);

  code::FlowCache cache(key_spec(spec.flow_kind), spec.cache_scheme,
                        spec.cache_capacity, spec.cache_costs);
  const double cache_s = timed(rec, "code.FlowCache::lookup", [&] {
    for (const auto& f : frames) acc += cache.lookup(cls, f).cache_hit;
  });
  out["code.flow_cache_lookup_ns"] =
      1e9 * cache_s / static_cast<double>(frames.size());
  g_sink = g_sink + acc;
  if (cache.stats().unmatched_scans != 0) {
    *error = "flow-cache probe: " +
             std::to_string(cache.stats().unmatched_scans) +
             " workload frames matched no path";
    return false;
  }
  return true;
}

/// xkernel.map_resolve_ns, xkernel.map_rebind_ns.
void probe_map(const ProbeSpec& spec, std::uint32_t client_ip,
               SpanRecorder& rec, MetricValues& out) {
  if (spec.key_stream.empty()) return;
  const DemuxGeometry g =
      demux_geometry(spec.flow_kind, client_ip, spec.population);
  const std::vector<xk::MapKey>& keys = g.keys;
  xk::SimAlloc arena;
  xk::Map<std::size_t> map(arena, g.buckets);
  for (std::size_t i = 0; i < keys.size(); ++i) map.bind(keys[i], i);
  std::uint64_t acc = 0;
  // Bounded so the 16-bucket RPC service map (chains of thousands at the
  // fleet population) stays under a second.
  const std::size_t m = std::min<std::size_t>(spec.key_stream.size(), 50'000);
  const double resolve_s = timed(rec, "xkernel.Map::resolve", [&] {
    for (std::size_t i = 0; i < m; ++i) {
      acc += map.resolve(keys[spec.key_stream[i]]).value_or(0);
    }
  });
  // The reconnect storm's demux writes: unbind then re-bind a drawn flow.
  const double rebind_s = timed(rec, "xkernel.Map::unbind+bind", [&] {
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t f = spec.key_stream[i];
      acc += map.unbind(keys[f]);
      map.bind(keys[f], f);
    }
  });
  g_sink = g_sink + acc;
  out["xkernel.map_resolve_ns"] = 1e9 * resolve_s / static_cast<double>(m);
  out["xkernel.map_rebind_ns"] = 1e9 * rebind_s / static_cast<double>(m);
}

/// xkernel.event_cycle_ns: schedule_at + fire with `timer_depth` timers
/// pending, as in the workload's worlds.
void probe_events(const ProbeSpec& spec, SpanRecorder& rec,
                  MetricValues& out) {
  xk::EventManager em;
  std::uint64_t fired = 0;
  constexpr std::uint64_t kFar = std::uint64_t{1} << 50;
  for (std::size_t i = 0; i < spec.timer_depth; ++i) {
    // Pending timers spread over the far future, the way per-connection
    // retransmit and keepalive deadlines are.
    em.schedule_at(kFar + i * 977, [&fired] { ++fired; });
  }
  constexpr std::size_t kCycles = 200'000;
  const double s = timed(rec, "xkernel.EventManager::schedule_at+fire", [&] {
    for (std::size_t i = 0; i < kCycles; ++i) {
      em.schedule_at(em.now() + 1 + (i % 7), [&fired] { ++fired; });
      em.advance_to_next();
    }
  });
  g_sink = g_sink + fired;
  out["xkernel.event_cycle_ns"] = 1e9 * s / kCycles;
}

/// net.maglev_rebuild_us over the script's alive sets.
void probe_maglev(const ProbeSpec& spec, SpanRecorder& rec,
                  MetricValues& out) {
  if (spec.backends == 0 || spec.alive_sets.empty()) return;
  net::MaglevTable table(spec.backends);
  constexpr std::size_t kRounds = 2000;
  std::uint64_t acc = 0;
  const double s = timed(rec, "net.MaglevTable::rebuild", [&] {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (const auto& alive : spec.alive_sets) acc += table.rebuild(alive);
    }
  });
  g_sink = g_sink + acc;
  out["net.maglev_rebuild_us"] =
      1e6 * s / static_cast<double>(kRounds * spec.alive_sets.size());
}

}  // namespace

bool check_classifier_agreement(const ProbeSpec& spec, std::string* error) {
  const code::PacketClassifier cls = proto::build_scaled_classifier(
      rule_kind(spec.flow_kind), spec.rules, spec.rule_seed);
  const int real = proto::real_path_id(rule_kind(spec.flow_kind));
  const auto frames = stream_frames(spec, 4096);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto t = cls.classify_scan_tuple(frames[i]).path_id;
    const auto l = cls.classify_scan_linear(frames[i]).path_id;
    if (t != l || !l.has_value() || *l != real) {
      *error = "classifier engines disagree or miss the real path on frame " +
               std::to_string(i) + " (tuple " +
               std::to_string(t.value_or(-1)) + ", linear " +
               std::to_string(l.value_or(-1)) + ")";
      return false;
    }
  }
  return true;
}

bool run_probes(const ProbeSpec& spec, SpanRecorder& rec, MetricValues& out,
                std::string* error) {
  ScopedSpan root(rec, "probes");
  const std::vector<CaptureState> caps = probe_captures(spec, rec, out);
  probe_sides(spec, caps, rec, out);
  const std::uint32_t client_ip =
      caps.empty() ? 0 : caps.front().world->client().address().ip;
  probe_map(spec, client_ip, rec, out);
  probe_events(spec, rec, out);
  probe_maglev(spec, rec, out);
  return probe_classifier(spec, rec, out, error);
}

}  // namespace perfbench
