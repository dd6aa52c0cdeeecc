#include "harness/recovery.h"

#include <algorithm>
#include <stdexcept>

#include "harness/driver.h"
#include "protocols/tcp.h"

namespace l96::harness {

RecoveryResult run_recovery(const RecoverySpec& rspec,
                            const BurstCostTable& costs) {
  const FleetSpec& spec = rspec.fleet;
  if (spec.kind != net::StackKind::kTcpIp) {
    throw std::invalid_argument(
        "run_recovery: TCP/IP only (the RPC fleet has no reconnect "
        "machinery to measure)");
  }
  driver::check_costs("run_recovery", spec, costs);
  if (spec.connections > fleet_detail::kMaxFlowsPerWorld) {
    throw std::invalid_argument(
        "run_recovery: connection fleet exceeds the client port space");
  }
  rspec.chaos.validate();
  for (const net::ChaosEvent& e : rspec.chaos.events()) {
    if (e.kind == net::ChaosKind::kHostCrash &&
        e.target == net::ChaosTarget::kClient) {
      throw std::invalid_argument(
          "run_recovery: the script must not crash the client (it is the "
          "measuring instrument)");
    }
  }

  const auto world = fleet_detail::make_world(spec, spec.connections);
  // Survival knobs: only touched when set, so a knob-free chaos-free row
  // evolves exactly like the fleet engine.
  for (net::Host* h : {&world->client(), &world->server()}) {
    if (rspec.keepalive_idle_us != 0) {
      h->set_tcp_keepalive(rspec.keepalive_idle_us, rspec.keepalive_intvl_us,
                           rspec.keepalive_probes);
    }
    if (rspec.max_syn_rexmts != 0) {
      h->set_tcp_max_syn_rexmts(rspec.max_syn_rexmts);
    }
  }

  const std::vector<fleet_detail::ScheduledBurst> schedule =
      fleet_detail::build_schedule(spec);
  const std::vector<std::uint32_t> flow_core(spec.connections, 0);
  driver::Plan plan;
  plan.row = "recovery run stalled (" +
             (spec.label.empty() ? std::string("unlabeled") : spec.label) +
             ", scheme=" + code::to_string(spec.scheme) + ")";
  plan.schedule = &schedule;
  plan.packets = spec.packets;
  plan.flow_core = &flow_core;
  plan.chaos = rspec.chaos;
  plan.pricer.burst = &costs;
  driver::Run run = driver::drive(driver::pair(*world), plan);

  RecoveryResult r;
  r.spec = rspec;
  r.fleet = run.result;
  r.fleet.spec = spec;
  r.fleet.cache = world->server().flow_cache()->stats();
  r.lost_packets = run.lost_packets;
  r.reconnects = run.reconnects;
  r.client_retransmits = run.client_retransmits;
  r.client_syn_retransmits = run.client_syn_retransmits;

  // A window's recovery phase runs from its start to the first completed
  // delivery at or after its end (which also defines time-to-recover).
  for (const net::ChaosWindow& w : rspec.chaos.windows()) {
    RecoveryWindow rw;
    rw.window = w;
    rw.start_abs_us = run.base_us + w.start_us;
    rw.end_abs_us = run.base_us + w.end_us;
    rw.samples_in_window =
        run.samples_between(rw.start_abs_us, rw.end_abs_us);
    const auto it = std::lower_bound(run.delivery_times.begin(),
                                     run.delivery_times.end(),
                                     rw.end_abs_us);
    if (it != run.delivery_times.end()) {
      rw.recovered = true;
      rw.first_delivery_abs_us = *it;
      rw.ttr_us = static_cast<double>(*it - rw.end_abs_us);
      run.disrupted.push_back({rw.start_abs_us, *it});
    } else {
      run.disrupted.push_back({rw.start_abs_us, ~std::uint64_t{0}});
    }
    r.windows.push_back(rw);
  }
  r.steady = run.phase_latency(false, r.steady_samples);
  r.recovery = run.phase_latency(true, r.recovery_samples);

  r.connect_failures = world->client().tcp()->connect_failures();
  r.keepalive_probes_sent = world->client().tcp()->keepalive_probes_sent();
  r.keepalive_reaps = world->client().tcp()->keepalive_reaps();
  // Server-side counters reset with each incarnation; rst_sent from the
  // current incarnation covers the post-reboot convergence storm.
  r.rst_sent = world->server().tcp()->rst_sent();
  r.blackout_drops = world->wire().blackout_drops();
  r.frames_to_dead =
      world->server().frames_to_dead() + world->client().frames_to_dead();
  r.purged_events =
      world->server().purged_events() + world->client().purged_events();
  r.server_incarnation = world->server().incarnation();
  return r;
}

Json recovery_json(const BurstCostTable& costs,
                   const std::vector<RecoveryResult>& rows) {
  Json section = emit_section("recovery", 1);
  section.set("costs", costs_json(costs));
  Json out_rows = Json::array();
  for (const RecoveryResult& r : rows) {
    const FleetSpec& s = r.spec.fleet;
    Json windows = Json::array();
    for (const RecoveryWindow& w : r.windows) {
      windows.push_back(
          Json::object()
              .set("kind", w.window.crash ? "crash" : "blackout")
              .set("target", net::to_string(w.window.target))
              .set("start_us", w.start_abs_us)
              .set("end_us", w.end_abs_us)
              .set("samples_in_window", w.samples_in_window)
              .set("recovered", w.recovered)
              .set("ttr_us", w.ttr_us));
    }
    Json row = fleet_row_json(s, /*with_kind=*/false);
    row.set("chaos", r.spec.chaos.str())
        .set("keepalive_idle_us", r.spec.keepalive_idle_us)
        .set("max_syn_rexmts",
             static_cast<std::uint64_t>(r.spec.max_syn_rexmts))
        .set("packets_sampled", r.fleet.packets_sampled)
        .set("scheduled_sampled", r.fleet.scheduled_sampled)
        .set("handshake_sampled", r.fleet.handshake_sampled)
        .set("dropped_in_churn", r.fleet.dropped_in_churn)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("connect_failures", r.connect_failures)
        .set("client_retransmits", r.client_retransmits)
        .set("client_syn_retransmits", r.client_syn_retransmits)
        .set("keepalive_probes_sent", r.keepalive_probes_sent)
        .set("keepalive_reaps", r.keepalive_reaps)
        .set("rst_sent", r.rst_sent)
        .set("blackout_drops", r.blackout_drops)
        .set("frames_to_dead", r.frames_to_dead)
        .set("purged_events", r.purged_events)
        .set("server_incarnation",
             static_cast<std::uint64_t>(r.server_incarnation))
        .set("slow_packets", r.fleet.slow_packets)
        .set("churns", r.fleet.churns)
        .set("cache", cache_json(r.fleet.cache, CacheFields::kShort))
        .set("latency_us", percentiles_json(r.fleet.latency))
        .set("steady_us", percentiles_json(r.steady))
        .set("recovery_us", percentiles_json(r.recovery))
        .set("steady_samples", r.steady_samples)
        .set("recovery_samples", r.recovery_samples)
        .set("windows", std::move(windows))
        .set("sim_us", r.fleet.sim_us)
        .set("sample_digest", r.fleet.sample_digest);
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
