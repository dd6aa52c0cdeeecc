#include "harness/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "harness/driver.h"
#include "protocols/lance.h"

namespace l96::harness {

std::uint64_t machine_params_key(const MachineParams& p) {
  std::uint64_t h = kSampleDigestSeed;
  fnv1a_value(h, p.mem.icache_bytes);
  fnv1a_value(h, p.mem.dcache_bytes);
  fnv1a_value(h, p.mem.bcache_bytes);
  fnv1a_value(h, p.mem.block_bytes);
  fnv1a_value(h, p.mem.wbuf_depth);
  fnv1a_value(h, p.mem.b_hit_cycles);
  fnv1a_value(h, p.mem.b_hit_seq_cycles);
  fnv1a_value(h, p.mem.dram_cycles);
  fnv1a_value(h, p.mem.wbuf_retire_cycles);
  fnv1a_value(h, p.mem.ifetch_prefetch_next);
  fnv1a_value(h, p.cpu.taken_branch_penalty);
  fnv1a_value(h, p.cpu.imul_penalty);
  fnv1a_value(h, p.cpu.dual_issue);
  fnv1a_value(h, p.cpu.pair_success_permille);
  fnv1a_value(h, p.cpu.frequency_hz);
  fnv1a_value(h, p.warmup_roundtrips);
  fnv1a_value(h, p.warmup_passes);
  fnv1a_value(h, p.scrub_fraction);
  fnv1a_value(h, p.scrub_fraction_d);
  fnv1a_value(h, 0.0);  // retired field's slot: recorded keys stay valid
  fnv1a_value(h, p.scrub_seed);
  return h;
}

BurstCostTable measure_burst_costs(net::StackKind kind,
                                   const code::StackConfig& cfg,
                                   std::size_t max_positions,
                                   const MachineParams& params) {
  if (max_positions == 0) {
    throw std::invalid_argument(
        "measure_burst_costs: max_positions must be >= 1");
  }
  const Capture cap =
      capture_world(kind, cfg, cfg, params.warmup_roundtrips);

  BurstCostTable table;
  table.kind = kind;
  table.config_name = cfg.name;
  table.params_key = machine_params_key(params);
  table.controller_us =
      cap.world->wire().params().one_way_us(proto::Lance::kMinFrame);

  // Fast path: the server's receive activation as captured (the inlined
  // composite when path_inlining is on), replayed back to back —
  // position 0 is the classic steady replay, later positions inherit the
  // residue their predecessors left in the primary caches.
  const MeasureSpec sspec = side_spec(cap, Side::kServer, cfg, params);
  StreamSpec fast_stream;
  fast_stream.base = sspec;
  fast_stream.burst = max_positions;
  const StreamMeasurement fast = measure_stream(fast_stream);
  table.fast_us.reserve(max_positions);
  for (const StreamPosition& p : fast.positions) {
    table.fast_us.push_back(p.tp_us);
  }

  // Slow path: the same activation bracketed by slow-path markers, lowered
  // under the same (fast-trace-profiled) image — the lowering then uses the
  // cold-segment standalone placements, which is what executes when the
  // composite's guard fails on a stale flow.  slow_us[p] prices the slow
  // activation arriving at burst position p, i.e. after p back-to-back
  // fast activations warmed the caches.
  code::PathTrace slow_trace;
  slow_trace.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                               code::Marker::kSlowPathBegin, 0});
  slow_trace.events.insert(slow_trace.events.end(),
                           cap.traces.server.events.begin(),
                           cap.traces.server.events.end());
  slow_trace.events.push_back({code::EventKind::kMarker, code::kInvalidFn, 0,
                               code::Marker::kSlowPathEnd, 0});
  table.slow_us.reserve(max_positions);
  for (std::size_t p = 0; p < max_positions; ++p) {
    StreamSpec slow_stream;
    slow_stream.base = sspec;
    // The slow trace is the stream's base activation so warm-up replays it
    // (exactly what the single-activation steady replay does); the image
    // profile stays the fast capture.
    slow_stream.base.trace = &slow_trace;
    slow_stream.base.profile = &cap.traces.server;
    slow_stream.base.split = sspec.split + 1;  // one marker prepended
    slow_stream.activations.assign(p, sspec.trace);
    slow_stream.activations.push_back(&slow_trace);
    const StreamMeasurement slow = measure_stream(slow_stream);
    table.slow_us.push_back(slow.steady_us());
  }
  return table;
}

FleetCounts& FleetCounts::operator+=(const FleetCounts& o) noexcept {
  packets_sampled += o.packets_sampled;
  scheduled_sampled += o.scheduled_sampled;
  handshake_sampled += o.handshake_sampled;
  dropped_in_churn += o.dropped_in_churn;
  bursts += o.bursts;
  slow_packets += o.slow_packets;
  churns += o.churns;
  cache += o.cache;
  return *this;
}

ZipfSampler::ZipfSampler(std::size_t n, double s, std::uint64_t seed)
    : state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ULL) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (!std::isfinite(s)) {
    throw std::invalid_argument("ZipfSampler: s must be finite");
  }
  cdf_.resize(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (std::size_t k = 0; k < n; ++k) cdf_[k] /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::next() {
  // xorshift64* — deterministic, seed-reproducible.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  const std::uint64_t u = state_ * 0x2545F4914F6CDD1DULL;
  const double r = static_cast<double>(u >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  return static_cast<std::size_t>(it - cdf_.begin());
}

namespace fleet_detail {

std::vector<ScheduledBurst> build_schedule(const FleetSpec& spec) {
  // The only Zipf sampler in the harness: every row walks this sequence.
  std::vector<ScheduledBurst> schedule;
  ZipfSampler zipf(spec.connections, spec.zipf_s, spec.seed);
  std::uint64_t sent = 0;
  while (sent < spec.packets) {
    ScheduledBurst b;
    b.flow = zipf.next();
    b.len = std::min<std::uint64_t>(spec.batch == 0 ? 1 : spec.batch,
                                    spec.packets - sent);
    sent += b.len;
    b.churn_after = spec.churn_every != 0 && sent < spec.packets &&
                    (sent / spec.churn_every) * spec.churn_every >
                        sent - b.len;
    schedule.push_back(b);
  }
  return schedule;
}

std::vector<CoreWork> split_schedule(
    const std::vector<ScheduledBurst>& schedule,
    const std::vector<std::uint32_t>& flow_core, std::size_t cores) {
  if (std::any_of(flow_core.begin(), flow_core.end(),
                  [cores](std::uint32_t c) { return c >= cores; })) {
    throw std::invalid_argument("split_schedule: flow steered past the cores");
  }
  std::vector<CoreWork> work(cores);
  std::vector<std::size_t> local(flow_core.size());
  for (std::size_t i = 0; i < flow_core.size(); ++i) {
    std::vector<std::size_t>& flows = work[flow_core[i]].flows;
    local[i] = flows.size();
    flows.push_back(i);
  }
  const std::uint32_t churn_core = flow_core.empty() ? 0 : flow_core[0];
  std::uint64_t scheduled = 0;
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBurst& sb = schedule[b];
    const std::uint32_t owner = flow_core[sb.flow];
    CoreWork& w = work[owner];
    w.steps.push_back({b, scheduled, sb.len, local[sb.flow],
                       sb.churn_after && owner == churn_core});
    w.packets += sb.len;
    if (sb.churn_after && owner != churn_core) {
      work[churn_core].steps.push_back({b, scheduled, 0, 0, true});
    }
    scheduled += sb.len;
  }
  return work;
}

std::size_t conn_bucket_count(std::size_t flows) {
  std::size_t buckets = 64;
  while (buckets < flows && buckets < (std::size_t{1} << 16)) buckets <<= 1;
  return buckets;
}

std::unique_ptr<net::World> make_world(const FleetSpec& spec,
                                       std::size_t flows) {
  net::WorldOptions options;
  options.tcp_conn_buckets = conn_bucket_count(flows);
  auto world = std::make_unique<net::World>(spec.kind, spec.config,
                                            spec.config, options);
  world->server().enable_flow_cache(spec.scheme, spec.cache_capacity,
                                    spec.cache_costs);
  if (spec.rules > 0) {
    world->server().install_scaled_classifier(spec.rules, spec.rule_seed);
  }
  return world;
}

driver::Run run_fleet_core(const FleetSpec& spec, const BurstCostTable& costs,
                           const CoreWork& work, bool local_ports) {
  const std::size_t flows = work.flows.size();
  driver::Run run;
  run.result.spec = spec;
  run.result.sample_digest = sample_digest({});
  if (flows == 0) return run;
  const bool tcp = spec.kind == net::StackKind::kTcpIp;
  if (flows > (tcp ? kMaxFlowsPerWorld : 65'536 - kFleetRpcProcBase)) {
    throw std::invalid_argument(
        "run_fleet_core: " + std::to_string(flows) +
        " flows on one core exceed the per-world " +
        (tcp ? "client port" : "RPC procedure") + " space — use more cores");
  }

  const auto world = make_world(spec, flows);
  driver::Plan plan;
  plan.row = "fleet run stalled (" +
             (spec.label.empty() ? std::string("unlabeled") : spec.label) +
             ", scheme=" + code::to_string(spec.scheme) + ")";
  plan.work = &work;
  plan.packets = spec.packets;
  plan.local_ports = local_ports;
  plan.pricer.costs = &costs;
  run = driver::drive(driver::pair(*world), plan);
  run.result.spec = spec;
  run.result.cache = world->server().front_end().flow_cache()->stats();
  return run;
}

}  // namespace fleet_detail

}  // namespace l96::harness
