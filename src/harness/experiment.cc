#include "harness/experiment.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "protocols/stack_code.h"
#include "xkernel/simalloc.h"

namespace l96::harness {

namespace {

std::string capture_context(net::World& world) {
  return std::string(world.kind() == net::StackKind::kTcpIp ? "TCP/IP"
                                                            : "RPC") +
         ", client=" + world.client().config().name +
         ", server=" + world.server().config().name;
}

[[noreturn]] void capture_fail(net::World& world, const char* what,
                               std::uint64_t requested) {
  throw std::runtime_error(
      std::string("capture failed (") + capture_context(world) + "): " + what +
      " — reached " + std::to_string(world.client_roundtrips()) + " of " +
      std::to_string(requested) + " requested roundtrips");
}

}  // namespace

CaptureResult capture_traces(net::World& world,
                             std::uint64_t warmup_roundtrips) {
  CaptureResult r;
  const std::uint64_t warm = warmup_roundtrips;
  if (!world.run_until_roundtrips(warm)) {
    capture_fail(world, "world did not reach warm-up roundtrips", warm);
  }
  world.client().arm_capture(&r.client);
  if (!world.run_until_roundtrips(warm + 1)) {
    capture_fail(world, "client capture roundtrip did not complete", warm + 1);
  }
  r.client_split = world.client().tx_split();

  world.server().arm_capture(&r.server);
  if (!world.run_until_roundtrips(warm + 2)) {
    capture_fail(world, "server capture roundtrip did not complete", warm + 2);
  }
  r.server_split = world.server().tx_split();
  return r;
}

Capture capture_world(net::StackKind kind, const code::StackConfig& ccfg,
                      const code::StackConfig& scfg,
                      std::uint64_t warmup_roundtrips) {
  Capture c;
  c.world = std::make_unique<net::World>(kind, ccfg, scfg);
  c.world->start(~std::uint64_t{0});
  c.traces = capture_traces(*c.world, warmup_roundtrips);
  c.controller_us =
      2.0 * c.world->wire().params().one_way_us(proto::Lance::kMinFrame);
  return c;
}

code::CodeImage build_image(net::StackKind kind, const code::StackConfig& cfg,
                            const code::CodeRegistry& reg,
                            const code::PathTrace& profile,
                            const MachineParams& params) {
  code::ImageBuilder b(reg, cfg);
  b.set_profile(profile);
  b.set_conflict_data_base(xk::SimAlloc::kArenaBase);
  b.set_cache_geometry(params.mem.icache_bytes, params.mem.block_bytes,
                       params.mem.bcache_bytes);
  if (cfg.path_inlining) {
    if (kind == net::StackKind::kTcpIp) {
      b.declare_path(proto::tcpip_output_path(reg));
      b.declare_path(proto::tcpip_input_path(reg));
    } else if (kind == net::StackKind::kRpc) {
      b.declare_path(proto::rpc_output_path(reg));
      b.declare_path(proto::rpc_input_path(reg));
    } else {
      b.declare_path(proto::lb_forward_path(reg));
    }
  }
  return b.build();
}

MeasureSpec side_spec(const Capture& cap, Side side,
                      const code::StackConfig& cfg,
                      const MachineParams& params) {
  const bool server = side == Side::kServer;
  MeasureSpec spec;
  spec.kind = cap.world->kind();
  spec.cfg = cfg;
  spec.registry = server ? &cap.world->server().registry()
                         : &cap.world->client().registry();
  spec.trace = server ? &cap.traces.server : &cap.traces.client;
  spec.split = server ? cap.traces.server_split : cap.traces.client_split;
  spec.seed_offset = server ? 1 : 0;
  spec.params = params;
  return spec;
}

namespace {

/// The first `count` events of `trace` (all of them when it is shorter):
/// the critical path when `count` is the transmit split.
code::PathTrace prefix_of(const code::PathTrace& trace, std::size_t count) {
  code::PathTrace prefix;
  prefix.events.assign(
      trace.events.begin(),
      trace.events.begin() +
          static_cast<std::ptrdiff_t>(std::min(count, trace.events.size())));
  return prefix;
}

/// Steady-state replay options (Table 7): warm-up passes with untraced-code
/// scrubbing at the given seed offset, no profiler attached.
sim::Machine::Options steady_options(const MachineParams& params,
                                     std::uint64_t seed_offset) {
  sim::Machine::Options opts;
  opts.cold_start = true;
  opts.warmup_passes = params.warmup_passes;
  opts.scrub_fraction = params.scrub_fraction;
  opts.scrub_fraction_d = params.scrub_fraction_d;
  opts.scrub_seed = params.scrub_seed + seed_offset;
  return opts;
}

/// What every replay of one spec shares: the image laid out from the
/// spec's profile, its lowering, the miss profiler (when asked for; one
/// owner map serves every replay, and Machine::run resets it at measurement
/// start, so each snapshot conserves to one replay's CacheStats) and the
/// steady options.  Callers validate the spec first.
struct Prelude {
  explicit Prelude(const MeasureSpec& spec)
      : image(build_image(spec.kind, spec.cfg, *spec.registry,
                          spec.profile != nullptr ? *spec.profile
                                                  : *spec.trace,
                          spec.params)),
        lower(*spec.registry, image, spec.cfg),
        steady(steady_options(spec.params, spec.seed_offset)) {
    if (spec.profile_misses) {
      prof = std::make_unique<sim::MissProfiler>(code::build_owner_map(
          *spec.registry, image, code::LowerParams{},
          {{"data:arena", xk::SimAlloc::kArenaBase,
            xk::SimAlloc::kArenaBase + 0x100'0000}}));
    }
  }
  Prelude(const Prelude&) = delete;  // `lower` must keep borrowing `image`

  const code::CodeImage image;
  const code::Lowering lower;  ///< borrows `image`
  const sim::Machine::Options steady;
  std::unique_ptr<sim::MissProfiler> prof;
};

}  // namespace

SideMeasurement measure_side(const MeasureSpec& spec) {
  if (spec.registry == nullptr || spec.trace == nullptr) {
    throw std::invalid_argument(
        "MeasureSpec requires a registry and a trace");
  }
  const MachineParams& params = spec.params;
  const Prelude pre(spec);

  SideMeasurement m;
  m.config_name = spec.cfg.name;
  m.static_hot_words = pre.image.hot_words();
  m.static_total_words = pre.image.total_words();

  const sim::MachineTrace full = pre.lower.lower(*spec.trace);
  m.instructions = full.size();
  const sim::MachineTrace critical =
      pre.lower.lower(prefix_of(*spec.trace, spec.split));
  m.critical_instructions = critical.size();

  // Cold replay: the paper's trace-driven cache simulation (Table 6).
  {
    sim::Machine machine(params.mem, params.cpu);
    sim::Machine::Options opts;
    opts.cold_start = true;
    opts.warmup_passes = 0;
    opts.miss_profiler = pre.prof.get();
    m.cold = machine.run(full, opts);
    if (pre.prof) {
      m.miss_cold =
          std::make_shared<const sim::MissProfile>(pre.prof->snapshot());
    }
  }
  // Steady replay: processing time and CPI (Table 7).
  {
    sim::Machine machine(params.mem, params.cpu);
    sim::Machine::Options opts = pre.steady;
    opts.miss_profiler = pre.prof.get();
    m.steady = machine.run(full, opts);
    m.tp_us = m.steady.processing_us(params.cpu.frequency_hz);
    if (pre.prof) {
      m.miss_steady =
          std::make_shared<const sim::MissProfile>(pre.prof->snapshot());
    }
  }
  {
    sim::Machine machine(params.mem, params.cpu);
    m.critical = machine.run(critical, pre.steady);
    m.critical_us = m.critical.processing_us(params.cpu.frequency_hz);
  }

  m.footprint = code::footprint_stats(full, pre.image, params.mem.block_bytes);
  return m;
}

StreamMeasurement measure_stream(const StreamSpec& spec) {
  const MeasureSpec& base = spec.base;
  if (base.registry == nullptr || base.trace == nullptr) {
    throw std::invalid_argument(
        "StreamSpec.base requires a registry and a trace");
  }
  if (spec.activations.empty() && spec.burst == 0) {
    throw std::invalid_argument("StreamSpec: burst must be >= 1");
  }
  for (const code::PathTrace* t : spec.activations) {
    if (t == nullptr) {
      throw std::invalid_argument("StreamSpec: null activation in sequence");
    }
  }
  const MachineParams& params = base.params;
  // One image for the whole stream: every activation (clean or error path)
  // executes under the same layout, exactly as a burst would on hardware.
  const Prelude pre(base);

  StreamMeasurement m;
  m.config_name = base.cfg.name;

  // Lower the warm-up/default activation once; heterogeneous sequence
  // entries pointing at the same trace share the lowering.
  const sim::MachineTrace warm = pre.lower.lower(*base.trace);
  std::vector<sim::MachineTrace> lowered;
  std::vector<const sim::MachineTrace*> seq;
  if (spec.activations.empty()) {
    seq.assign(spec.burst, &warm);
  } else {
    lowered.reserve(spec.activations.size());
    for (const code::PathTrace* t : spec.activations) {
      if (t == base.trace) {
        seq.push_back(&warm);
      } else {
        lowered.push_back(pre.lower.lower(*t));
        seq.push_back(&lowered.back());
      }
    }
  }

  // Same steady-state options as measure_side: position 0 starts from the
  // post-warm-up, post-scrub state and is byte-identical to the steady
  // replay; later positions run back to back with no scrub in between.
  sim::Machine machine(params.mem, params.cpu);
  sim::Machine::Options opts = pre.steady;
  opts.miss_profiler = pre.prof.get();
  const std::vector<sim::RunResult> runs =
      machine.run_stream(seq, opts, &warm);

  m.positions.reserve(runs.size());
  for (const sim::RunResult& r : runs) {
    StreamPosition p;
    p.steady = r;
    p.tp_us = r.processing_us(params.cpu.frequency_hz);
    m.positions.push_back(p);
  }
  if (pre.prof) {
    m.miss = std::make_shared<const sim::MissProfile>(pre.prof->snapshot());
  }
  return m;
}

ConfigResult combine_sides(SideMeasurement client, SideMeasurement server,
                           double controller_us) {
  ConfigResult r;
  r.client = std::move(client);
  r.server = std::move(server);
  r.te_us = controller_us + r.client.critical_us + r.server.critical_us;
  r.te_adjusted = r.client.critical_us + r.server.critical_us;
  return r;
}

std::vector<double> measure_te_samples(const Capture& cap,
                                       const code::StackConfig& ccfg,
                                       const code::StackConfig& scfg,
                                       const MachineParams& params,
                                       std::uint64_t n) {
  if (n == 0) return {};
  // Each side's critical prefix, imaged and lowered once: the trace
  // measure_side() replays for SideMeasurement::critical.
  const auto critical = [&](const MeasureSpec& spec) {
    return Prelude(spec).lower.lower(prefix_of(*spec.trace, spec.split));
  };
  const sim::MachineTrace c =
      critical(side_spec(cap, Side::kClient, ccfg, params));
  const sim::MachineTrace s =
      critical(side_spec(cap, Side::kServer, scfg, params));
  const auto critical_us = [&](const sim::MachineTrace& t,
                               std::uint64_t seed_offset) {
    sim::Machine machine(params.mem, params.cpu);
    return machine.run(t, steady_options(params, seed_offset))
        .processing_us(params.cpu.frequency_hz);
  };
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    out.push_back(cap.controller_us + critical_us(c, 100 + 7 * k) +
                  critical_us(s, 200 + 13 * k));
  }
  return out;
}

Experiment::Experiment(net::StackKind kind, code::StackConfig client_cfg,
                       code::StackConfig server_cfg, MachineParams params)
    : kind_(kind),
      client_cfg_(std::move(client_cfg)),
      server_cfg_(std::move(server_cfg)),
      params_(params) {}

const Capture& Experiment::capture() {
  if (!cap_.world) {
    cap_ = capture_world(kind_, client_cfg_, server_cfg_,
                         params_.warmup_roundtrips);
  }
  return cap_;
}

ConfigResult Experiment::run() {
  const Capture& cap = capture();
  return combine_sides(
      measure_side(side_spec(cap, Side::kClient, client_cfg_, params_)),
      measure_side(side_spec(cap, Side::kServer, server_cfg_, params_)),
      cap.controller_us);
}

std::vector<double> Experiment::te_samples(std::uint64_t n_samples) {
  return measure_te_samples(capture(), client_cfg_, server_cfg_, params_,
                            n_samples);
}

sim::MachineTrace Experiment::lower_client(
    const code::StackConfig& cfg_override) {
  const MeasureSpec spec =
      side_spec(capture(), Side::kClient, cfg_override, params_);
  return Prelude(spec).lower.lower(*spec.trace);
}

sim::MachineTrace Experiment::lower_client_prefix(std::size_t count) {
  const MeasureSpec spec =
      side_spec(capture(), Side::kClient, client_cfg_, params_);
  return Prelude(spec).lower.lower(prefix_of(*spec.trace, count));
}

std::size_t Experiment::find_client_call(std::string_view fn_name) {
  const code::FnId id = world().client().registry().require(fn_name);
  const code::PathTrace& trace = client_trace();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto& ev = trace.events[i];
    if (ev.kind == code::EventKind::kCall && ev.fn == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

ConfigResult run_config(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg, MachineParams params) {
  Experiment e(kind, ccfg, scfg, params);
  return e.run();
}

std::vector<code::StackConfig> paper_configs() {
  return {code::StackConfig::Bad(), code::StackConfig::Std(),
          code::StackConfig::Out(), code::StackConfig::Clo(),
          code::StackConfig::Pin(), code::StackConfig::All()};
}

}  // namespace l96::harness
