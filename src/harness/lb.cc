#include "harness/lb.h"

#include <algorithm>
#include <stdexcept>

#include "harness/driver.h"
#include "protocols/lance.h"
#include "protocols/tcp.h"

namespace l96::harness {

LbCostTable measure_lb_costs(const code::StackConfig& cfg,
                             const MachineParams& params) {
  net::LbWorldOptions opts;
  opts.backends = 2;
  net::LbWorld world(cfg, cfg, cfg, opts);
  world.start(1'000'000);
  if (!world.run_until_roundtrips(params.warmup_roundtrips, 60'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: warm-up ping-pong stalled for config " + cfg.name);
  }

  LbCostTable table;
  table.config_name = cfg.name;
  table.params_key = machine_params_key(params);
  table.controller_us =
      world.client_wire().params().one_way_us(proto::Lance::kMinFrame);

  // Fast: the next client frame rides the warmed pinned entry.
  code::PathTrace fast;
  world.lb().arm_capture(&fast);
  if (!world.run_until([&] { return world.lb().capture_complete(); },
                       10'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: fast-path capture stalled for config " + cfg.name);
  }
  const std::size_t fast_split = world.lb().tx_split();

  // Slow: force every conn-track entry stale so the next frame records
  // the standalone rebind (guard failure, Maglev hash + probe, re-pin).
  for (std::size_t b = 0; b < world.backend_count(); ++b) {
    world.lb().conn_track().invalidate_path(static_cast<int>(b));
  }
  code::PathTrace slow;
  world.lb().arm_capture(&slow);
  if (!world.run_until([&] { return world.lb().capture_complete(); },
                       10'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: slow-path capture stalled for config " + cfg.name);
  }
  const std::size_t slow_split = world.lb().tx_split();

  MeasureSpec fs;
  fs.kind = net::StackKind::kLb;
  fs.cfg = cfg;
  fs.registry = &world.lb().registry();
  fs.trace = &fast;
  fs.split = fast_split;
  fs.seed_offset = 2;  // client 0 / server 1 / LB 2 by convention
  fs.params = params;
  table.fast_us = measure_side(fs).tp_us;

  // The slow activation replays under the fast capture's layout profile:
  // the image is laid out for the pinned path, so the rebind pays the
  // cold-segment standalone placements.
  MeasureSpec ss = fs;
  ss.trace = &slow;
  ss.profile = &fast;
  ss.split = slow_split;
  table.slow_us = measure_side(ss).tp_us;
  return table;
}

LbResult run_lb(const LbSpec& spec, const LbCostTable& costs) {
  // The population and schedule as a fleet row (LB rows never churn).
  const FleetSpec fleet{.label = spec.label,
                        .config = spec.config,
                        .connections = spec.connections,
                        .packets = spec.packets,
                        .batch = spec.batch,
                        .zipf_s = spec.zipf_s,
                        .seed = spec.seed,
                        .params = spec.params};
  driver::check_costs("run_lb", fleet, costs);
  if (spec.backends == 0) {
    throw std::invalid_argument("run_lb: backends must be > 0");
  }
  if (spec.connections > fleet_detail::kMaxFlowsPerWorld) {
    throw std::invalid_argument(
        "run_lb: connection fleet exceeds the client port space");
  }
  spec.chaos.validate();

  net::LbWorldOptions opts;
  opts.backends = spec.backends;
  opts.tcp_conn_buckets = fleet_detail::conn_bucket_count(spec.connections);
  opts.lb.track_scheme = spec.track_scheme;
  opts.lb.track_capacity = spec.track_capacity;
  opts.lb.track_costs = spec.track_costs;
  opts.lb.maglev_table_size = spec.maglev_table_size;
  opts.lb.health = spec.health;
  net::LbWorld world(spec.config, spec.config, spec.config, opts);
  world.lb().start_health_checks();

  const std::vector<fleet_detail::ScheduledBurst> schedule =
      fleet_detail::build_schedule(fleet);
  const std::vector<std::uint32_t> flow_core(spec.connections, 0);
  driver::Plan plan;
  plan.row = "lb run stalled (" +
             (spec.label.empty() ? std::string("unlabeled") : spec.label) +
             ", backends=" + std::to_string(spec.backends) + ")";
  plan.schedule = &schedule;
  plan.packets = spec.packets;
  plan.flow_core = &flow_core;
  plan.chaos = spec.chaos;
  // Health recovery needs probes to observe the healed backend; give the
  // script one recover_threshold's worth of probe intervals of slack.
  plan.horizon_slack_us =
      (spec.health.recover_threshold + 1) * spec.health.interval_us;
  plan.pricer.flat = &costs;
  driver::Run run = driver::drive(driver::tier(world), plan);

  LbResult r;
  r.spec = spec;
  r.packets_sampled = run.result.packets_sampled;
  r.scheduled_sampled = run.result.scheduled_sampled;
  r.handshake_sampled = run.result.handshake_sampled;
  r.lost_packets = run.lost_packets;
  r.reconnects = run.reconnects;
  r.latency = run.result.latency;
  r.sample_digest = run.result.sample_digest;
  r.sim_us = run.result.sim_us;
  r.client_retransmits = run.client_retransmits;
  r.client_syn_retransmits = run.client_syn_retransmits;

  // Steering verdicts from the LB's rebuild ledger; a window's disrupted
  // phase runs from its start until the pool restored the backend.
  const std::vector<net::LbRebuild>& rebuilds = world.lb().rebuilds();
  for (const net::ChaosWindow& w : spec.chaos.windows()) {
    LbSteer st;
    st.window = w;
    st.start_abs_us = run.base_us + w.start_us;
    st.end_abs_us = run.base_us + w.end_us;
    st.samples_in_window =
        run.samples_between(st.start_abs_us, st.end_abs_us);
    if (w.target == net::ChaosTarget::kBackend ||
        w.target == net::ChaosTarget::kBackendLink) {
      for (const net::LbRebuild& rb : rebuilds) {
        if (rb.backend == w.index && rb.at_us >= st.start_abs_us &&
            (rb.cause == net::LbRebuildCause::kDrain ||
             rb.cause == net::LbRebuildCause::kHealthDown)) {
          st.steered_away = true;
          st.tta_us = static_cast<double>(rb.at_us - st.start_abs_us);
          break;
        }
      }
      for (const net::LbRebuild& rb : rebuilds) {
        if (rb.backend == w.index && rb.at_us >= st.end_abs_us &&
            (rb.cause == net::LbRebuildCause::kUndrain ||
             rb.cause == net::LbRebuildCause::kHealthUp)) {
          st.restored = true;
          st.ttr_us = static_cast<double>(rb.at_us - st.end_abs_us);
          break;
        }
      }
    }
    const std::uint64_t phase_end =
        st.restored
            ? st.end_abs_us + static_cast<std::uint64_t>(st.ttr_us)
            : std::max(st.end_abs_us, world.events().now());
    run.disrupted.push_back({st.start_abs_us, phase_end});
    r.windows.push_back(st);
  }
  r.steady = run.phase_latency(false, r.steady_samples);
  r.disrupted = run.phase_latency(true, r.disrupted_samples);

  r.forwards = world.lb().forwards();
  r.slow_forwards = world.lb().slow_forwards();
  r.returns_forwarded = world.lb().returns_forwarded();
  r.drops_no_backend = world.lb().drops_no_backend();
  r.dark_forwards = world.lb().dark_forwards();
  r.health_probes = world.lb().health_probes();
  r.rebuilds = rebuilds;
  r.track = world.lb().conn_track().stats();
  r.blackout_drops = world.client_wire().blackout_drops();
  r.frames_to_dead = world.client().frames_to_dead();
  r.purged_events = world.client().purged_events();
  for (std::size_t i = 0; i < spec.backends; ++i) {
    r.rst_sent += world.backend(i).tcp()->rst_sent();
    r.frames_to_dead += world.backend(i).frames_to_dead();
    r.purged_events += world.backend(i).purged_events();
    r.blackout_drops += world.backend_wire(i).blackout_drops();
    r.backend_incarnations += world.backend(i).incarnation();
  }
  return r;
}

Json lb_json(const LbCostTable& costs, const std::vector<LbResult>& rows) {
  Json section = emit_section("lb", 1);
  section.set("costs", Json::object()
                           .set("controller_us", costs.controller_us)
                           .set("fast_us", costs.fast_us)
                           .set("slow_us", costs.slow_us)
                           .set("config", costs.config_name)
                           .set("params_key", costs.params_key));
  Json out_rows = Json::array();
  for (const LbResult& r : rows) {
    const LbSpec& s = r.spec;
    Json rebuilds = Json::array();
    for (const net::LbRebuild& rb : r.rebuilds) {
      rebuilds.push_back(
          Json::object()
              .set("at_us", rb.at_us)
              .set("cause", net::to_string(rb.cause))
              .set("backend", static_cast<std::uint64_t>(rb.backend))
              .set("remapped", static_cast<std::uint64_t>(rb.remapped))
              .set("remap_fraction",
                   static_cast<double>(rb.remapped) /
                       static_cast<double>(s.maglev_table_size))
              .set("invalidated",
                   static_cast<std::uint64_t>(rb.invalidated))
              .set("pool_size", static_cast<std::uint64_t>(rb.pool_size)));
    }
    Json windows = Json::array();
    for (const LbSteer& w : r.windows) {
      windows.push_back(
          Json::object()
              .set("kind", w.window.drain    ? "drain"
                           : w.window.crash  ? "crash"
                                             : "blackout")
              .set("target", net::to_string(w.window.target))
              .set("index", static_cast<std::uint64_t>(w.window.index))
              .set("start_us", w.start_abs_us)
              .set("end_us", w.end_abs_us)
              .set("samples_in_window", w.samples_in_window)
              .set("steered_away", w.steered_away)
              .set("tta_us", w.tta_us)
              .set("restored", w.restored)
              .set("ttr_us", w.ttr_us));
    }
    Json row = Json::object();
    row.set("label", s.label)
        .set("config", s.config.name)
        .set("backends", static_cast<std::uint64_t>(s.backends))
        .set("connections", static_cast<std::uint64_t>(s.connections))
        .set("packets", s.packets)
        .set("batch", static_cast<std::uint64_t>(s.batch))
        .set("zipf_s", s.zipf_s)
        .set("seed", s.seed)
        .set("scheme", code::to_string(s.track_scheme))
        .set("track_capacity", static_cast<std::uint64_t>(s.track_capacity))
        .set("maglev_table_size",
             static_cast<std::uint64_t>(s.maglev_table_size))
        .set("chaos", s.chaos.str())
        .set("health",
             Json::object()
                 .set("interval_us", s.health.interval_us)
                 .set("fail_threshold",
                      static_cast<std::uint64_t>(s.health.fail_threshold))
                 .set("recover_threshold", static_cast<std::uint64_t>(
                                               s.health.recover_threshold)))
        .set("packets_sampled", r.packets_sampled)
        .set("scheduled_sampled", r.scheduled_sampled)
        .set("handshake_sampled", r.handshake_sampled)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("forwards", r.forwards)
        .set("slow_forwards", r.slow_forwards)
        .set("returns_forwarded", r.returns_forwarded)
        .set("drops_no_backend", r.drops_no_backend)
        .set("dark_forwards", r.dark_forwards)
        .set("health_probes", r.health_probes)
        .set("client_retransmits", r.client_retransmits)
        .set("client_syn_retransmits", r.client_syn_retransmits)
        .set("rst_sent", r.rst_sent)
        .set("frames_to_dead", r.frames_to_dead)
        .set("blackout_drops", r.blackout_drops)
        .set("purged_events", r.purged_events)
        .set("backend_incarnations",
             static_cast<std::uint64_t>(r.backend_incarnations))
        .set("track", cache_json(r.track, CacheFields::kShort))
        .set("latency_us", percentiles_json(r.latency))
        .set("steady_us", percentiles_json(r.steady))
        .set("disrupted_us", percentiles_json(r.disrupted))
        .set("steady_samples", r.steady_samples)
        .set("disrupted_samples", r.disrupted_samples)
        .set("rebuilds", std::move(rebuilds))
        .set("windows", std::move(windows))
        .set("sim_us", r.sim_us)
        .set("sample_digest", r.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
