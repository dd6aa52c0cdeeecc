#include "metrics.h"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"pkts_per_s", "1/s"},   {"configs_per_s", "1/s"},
      {"setup_s", "s"},        {"peak_rss_mb", "MB"},
      {"te_err_pct", "%"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      // harness
      {"harness.cost_tables_s", "s"},
      {"harness.steer_s", "s"},
      {"harness.engine_s", "s"},
      {"harness.emit_s", "s"},
      {"harness.capture_ms", "ms"},
      {"harness.measure_side_ms.p50", "ms"},
      {"harness.measure_side_ms.p99", "ms"},
      {"harness.workers_used", "count"},
      {"harness.cpu_s", "s"},
      // code
      {"code.build_image_ms", "ms"},
      {"code.lower_us", "us"},
      {"code.classify_tuple_ns", "ns"},
      {"code.classify_linear_ns", "ns"},
      {"code.flow_cache_lookup_ns", "ns"},
      {"code.flow_cache_hit_ratio", "ratio"},
      {"code.unmatched_scans", "count"},
      // sim
      {"sim.replay_ns_per_instr", "ns"},
      {"sim.instructions_replayed", "count"},
      // xkernel
      {"xkernel.map_resolve_ns", "ns"},
      {"xkernel.map_rebind_ns", "ns"},
      {"xkernel.event_cycle_ns", "ns"},
      // protocols
      {"protocols.tcp_roundtrip_us", "us"},
      {"protocols.rpc_roundtrip_us", "us"},
      // net
      {"net.fleet.slow_frac", "ratio"},
      {"net.fleet.hot_core_util", "ratio"},
      {"net.recovery.frames_per_sched", "ratio"},
      {"net.recovery.reconnects", "count"},
      {"net.lb.lost_packets", "count"},
      {"net.lb.rebuilds", "count"},
      {"net.maglev_rebuild_us", "us"},
      // model (simulated outputs)
      {"model.te_us.tcpip.ALL", "us"},
      {"model.te_us.rpc.ALL", "us"},
      {"model.service_p99_us", "us"},
      {"model.recovery_p999_us", "us"},
      // tracing
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

}  // namespace perfbench
