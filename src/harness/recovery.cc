#include "harness/recovery.h"

#include <algorithm>
#include <stdexcept>

#include "harness/driver.h"

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

  // One core owns every flow.
  const std::vector<fleet_detail::CoreWork> work =
      fleet_detail::split_schedule(
          fleet_detail::build_schedule(spec),
          std::vector<std::uint32_t>(spec.connections, 0), 1);
  driver::Plan plan;
  plan.row = "recovery run stalled (" +
             (spec.label.empty() ? std::string("unlabeled") : spec.label) +
             ", scheme=" + code::to_string(spec.scheme) + ")";
  plan.work = &work.front();
  plan.packets = spec.packets;
  plan.chaos = rspec.chaos;
  plan.pricer.costs = &costs;
  driver::Run run = driver::drive(driver::pair(*world), plan);

  RecoveryResult r;
  r.spec = rspec;
  r.fleet = run.result;
  r.fleet.spec = spec;
  r.fleet.cache = world->server().front_end().flow_cache()->stats();
  r.lost_packets = run.lost_packets;
  r.reconnects = run.reconnects;
  r.fallout = run.fallout;

  // A window's recovery phase runs from its start to the first completed
  // delivery at or after its end (which also defines time-to-recover).
  for (const net::ChaosWindow& w : rspec.chaos.windows()) {
    RecoveryWindow rw{run.span(w)};
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
  return r;
}

Json recovery_json(const BurstCostTable& costs,
                   const std::vector<RecoveryResult>& rows) {
  Json section = emit_section("recovery", 2);
  section.set("costs", costs_json(costs));
  Json out_rows = Json::array();
  for (const RecoveryResult& r : rows) {
    Json windows = Json::array();
    for (const RecoveryWindow& w : r.windows) {
      windows.push_back(span_json(w)
                            .set("recovered", w.recovered)
                            .set("ttr_us", w.ttr_us));
    }
    Json row = fleet_row_json(r.spec.fleet, /*with_kind=*/false);
    row.set("chaos", r.spec.chaos.str())
        .set("keepalive_idle_us", r.spec.keepalive_idle_us)
        .set("max_syn_rexmts",
             static_cast<std::uint64_t>(r.spec.max_syn_rexmts));
    set_counts(row, r.fleet)
        .set("lost_packets", r.lost_packets)
        .set("reconnects", r.reconnects)
        .set("fallout", fallout_json(r.fallout))
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
