#include "harness/lb.h"

#include <algorithm>
#include <stdexcept>

#include "harness/driver.h"
#include "protocols/lance.h"

namespace l96::harness {

BurstCostTable measure_lb_costs(const code::StackConfig& cfg,
                                const MachineParams& params) {
  net::LbWorldOptions opts;
  opts.backends = 2;
  net::LbWorld world(cfg, cfg, cfg, opts);
  world.start(1'000'000);
  if (!world.run_until_roundtrips(params.warmup_roundtrips, 60'000'000)) {
    throw std::runtime_error(
        "measure_lb_costs: warm-up ping-pong stalled for config " + cfg.name);
  }

  BurstCostTable table;
  table.kind = net::StackKind::kLb;
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
  table.fast_us = {measure_side(fs).tp_us};

  // The slow activation replays under the fast capture's layout profile:
  // the image is laid out for the pinned path, so the rebind pays the
  // cold-segment standalone placements.
  MeasureSpec ss = fs;
  ss.trace = &slow;
  ss.profile = &fast;
  ss.split = slow_split;
  table.slow_us = {measure_side(ss).tp_us};
  return table;
}

LbResult run_lb(const LbSpec& spec, const BurstCostTable& costs) {
  // The population and schedule as a fleet row (LB rows never churn).
  const FleetSpec fleet{.label = spec.label,
                        .kind = net::StackKind::kLb,
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

  // One core owns every flow.
  const std::vector<fleet_detail::CoreWork> work =
      fleet_detail::split_schedule(
          fleet_detail::build_schedule(fleet),
          std::vector<std::uint32_t>(spec.connections, 0), 1);
  driver::Plan plan;
  plan.row = "lb run stalled (" +
             (spec.label.empty() ? std::string("unlabeled") : spec.label) +
             ", backends=" + std::to_string(spec.backends) + ")";
  plan.work = &work.front();
  plan.packets = spec.packets;
  plan.chaos = spec.chaos;
  // Health recovery needs probes to observe the healed backend; give the
  // script one recover_threshold's worth of probe intervals of slack.
  plan.horizon_slack_us =
      (spec.health.recover_threshold + 1) * spec.health.interval_us;
  plan.pricer.costs = &costs;
  driver::Run run = driver::drive(driver::tier(world), plan);

  LbResult r;
  static_cast<FleetCounts&>(r) = run.result;
  r.cache = world.lb().conn_track().stats();
  r.spec = spec;
  r.lost_packets = run.lost_packets;
  r.reconnects = run.reconnects;
  r.fallout = run.fallout;
  r.latency = run.result.latency;
  r.sample_digest = run.result.sample_digest;
  r.sim_us = run.result.sim_us;

  // Steering verdicts from the LB's rebuild ledger; a window's disrupted
  // phase runs from its start until the pool restored the backend.
  const std::vector<net::LbRebuild>& rebuilds = world.lb().rebuilds();
  for (const net::ChaosWindow& w : spec.chaos.windows()) {
    LbSteer st{run.span(w)};
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
  return r;
}

Json lb_json(const BurstCostTable& costs, const std::vector<LbResult>& rows) {
  Json section = emit_section("lb", 2);
  section.set("costs", costs_json(costs));
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
      windows.push_back(span_json(w)
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
                                               s.health.recover_threshold)));
    set_counts(row, r)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("forwards", r.forwards)
        .set("slow_forwards", r.slow_forwards)
        .set("returns_forwarded", r.returns_forwarded)
        .set("drops_no_backend", r.drops_no_backend)
        .set("dark_forwards", r.dark_forwards)
        .set("health_probes", r.health_probes)
        .set("fallout", fallout_json(r.fallout))
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
