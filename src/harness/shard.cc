#include "harness/shard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "harness/driver.h"
#include "harness/runner.h"
#include "protocols/stack_code.h"

namespace l96::harness {

namespace {

using fleet_detail::kFleetClientPortBase;
using fleet_detail::kFleetRpcProcBase;
using fleet_detail::kFleetServerPort;
using fleet_detail::kMaxFlowsPerWorld;
using fleet_detail::ScheduledBurst;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// RSS hash of global flow i's canonical identity: the FlowKeySpec key the
/// classifier itself would compute over the flow's wire tuple.  For fleets
/// past one world's port space the identity keeps counting into adjacent
/// client IPs / channels — the steering key stays canonical and global
/// even when a core re-uses its local port space (local_ports mode).
std::uint32_t hash_core(const FleetSpec& fleet, const code::FlowKeySpec& key,
                        std::size_t i, std::size_t cores) {
  std::uint32_t vals[3];
  std::size_t n;
  if (fleet.kind == net::StackKind::kTcpIp) {
    vals[0] = 0x0A000001u + static_cast<std::uint32_t>(i / kMaxFlowsPerWorld);
    vals[1] = static_cast<std::uint32_t>(kFleetClientPortBase +
                                         i % kMaxFlowsPerWorld);
    vals[2] = kFleetServerPort;
    n = 3;
  } else {
    const std::size_t procs = 65'536 - kFleetRpcProcBase;
    vals[0] = static_cast<std::uint32_t>(i / procs);
    vals[1] = static_cast<std::uint32_t>(kFleetRpcProcBase + i % procs);
    n = 2;
  }
  return static_cast<std::uint32_t>(
      splitmix64(key.key_of_values({vals, n})) % cores);
}

/// Walk the global schedule and splice the per-core tagged streams back
/// into the fleet-wide sample order, running the open-loop queue model as
/// samples are consumed.  With one core the merged order is the core's
/// own append order.
ShardResult merge_cores(const ShardSpec& spec,
                        const std::vector<ScheduledBurst>& schedule,
                        const std::vector<std::uint32_t>& flow_core,
                        std::vector<driver::Run> per_core) {
  const std::size_t ncores = spec.cores;
  ShardResult r;
  r.spec = spec;
  r.cores.resize(ncores);

  std::vector<std::size_t> cur(ncores, 0);
  std::vector<double> busy(ncores, 0.0);         // queue-model completion
  std::vector<double> service_sum(ncores, 0.0);
  std::vector<std::vector<double>> core_sojourn(ncores);
  std::vector<double> merged_service;
  std::vector<double> merged_sojourn;
  merged_service.reserve(spec.fleet.packets + spec.fleet.packets / 4);
  merged_sojourn.reserve(merged_service.capacity());
  std::uint64_t g = 0;  // global scheduled-arrival index
  const std::uint32_t churn_owner = flow_core.empty() ? 0 : flow_core[0];
  const bool queued = spec.arrival_us > 0;

  const auto consume = [&](std::uint32_t c, std::uint64_t burst,
                           std::uint32_t phase) {
    const std::vector<driver::TaggedSample>& s = per_core[c].samples;
    while (cur[c] < s.size() && s[cur[c]].burst == burst &&
           s[cur[c]].phase == phase) {
      const double us = s[cur[c]].us;
      ++cur[c];
      merged_service.push_back(us);
      service_sum[c] += us;
      double sojourn = us;
      if (queued && phase == 0) {
        const double arrival = static_cast<double>(g) * spec.arrival_us;
        const double start = std::max(busy[c], arrival);
        const double wait = start - arrival;
        busy[c] = start + us;
        sojourn = busy[c] - arrival;
        if (wait > r.cores[c].max_wait_us) r.cores[c].max_wait_us = wait;
      } else {
        busy[c] += us;
      }
      if (phase == 0) ++g;
      merged_sojourn.push_back(sojourn);
      core_sojourn[c].push_back(sojourn);
    }
  };

  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const ScheduledBurst& sb = schedule[b];
    consume(flow_core[sb.flow], b, /*phase=*/0);
    if (sb.churn_after) consume(churn_owner, b, /*phase=*/1);
  }

  // Every core's cursor must be exhausted and its counters must match its
  // own stream, or the row is not conserved.
  bool cores_conserved = true;
  for (std::size_t c = 0; c < ncores; ++c) {
    const FleetResult& fr = per_core[c].result;
    ShardCoreStats& cs = r.cores[c];
    cs.core = static_cast<std::uint32_t>(c);
    cs += fr;
    r += fr;
    cs.service = fr.latency;
    cs.sojourn = percentiles(core_sojourn[c]);
    cs.busy_us = service_sum[c];
    cs.sim_us = fr.sim_us;
    cs.sample_digest = fr.sample_digest;
    r.sim_us = std::max(r.sim_us, fr.sim_us);
    cores_conserved = cores_conserved &&
                      cur[c] == per_core[c].samples.size() &&
                      fr.scheduled_sampled + fr.handshake_sampled ==
                          fr.packets_sampled;
    if (service_sum[c] > service_sum[r.hot_core]) {
      r.hot_core = static_cast<std::uint32_t>(c);
    }
    r.makespan_us = std::max(r.makespan_us, busy[c]);
  }
  for (std::uint32_t c : flow_core) ++r.cores[c].flows;
  for (std::size_t c = 0; c < ncores; ++c) {
    r.cores[c].utilization =
        r.makespan_us > 0 ? service_sum[c] / r.makespan_us : 0;
  }
  r.latency = percentiles(merged_service);
  r.sojourn = percentiles(merged_sojourn);
  r.sample_digest = sample_digest(merged_service);
  r.throughput_mpps =
      r.makespan_us > 0
          ? static_cast<double>(r.scheduled_sampled) / r.makespan_us
          : 0;

  r.conserved = cores_conserved &&
                r.scheduled_sampled + r.dropped_in_churn ==
                    spec.fleet.packets &&
                r.packets_sampled ==
                    static_cast<std::uint64_t>(merged_service.size());
  return r;
}

}  // namespace

const char* to_string(SteeringPolicy p) noexcept {
  return p == SteeringPolicy::kFlowHash ? "hash" : "least";
}

SteeringPolicy steering_policy_from_string(const std::string& s) {
  if (s == "hash" || s == "flow_hash") return SteeringPolicy::kFlowHash;
  if (s == "least" || s == "least_loaded") return SteeringPolicy::kLeastLoaded;
  throw std::invalid_argument("unknown steering policy '" + s +
                              "' (expected hash|least)");
}

std::vector<std::uint32_t> steer_flows(const FleetSpec& fleet,
                                       std::size_t cores, SteeringPolicy p) {
  if (cores == 0) {
    throw std::invalid_argument("steer_flows: cores must be >= 1");
  }
  std::vector<std::uint32_t> map(fleet.connections, 0);
  if (cores == 1) return map;
  const code::FlowKeySpec key = fleet.kind == net::StackKind::kTcpIp
                                    ? proto::tcpip_flow_key_spec()
                                    : proto::rpc_flow_key_spec();
  if (p == SteeringPolicy::kFlowHash) {
    for (std::size_t i = 0; i < fleet.connections; ++i) {
      map[i] = hash_core(fleet, key, i, cores);
    }
    return map;
  }

  // Least-loaded: walk the (deterministic) schedule; a flow is assigned on
  // first appearance to the core with the least scheduled packets so far
  // and sticks there.  Flows the schedule never draws steer by hash.
  const std::vector<ScheduledBurst> schedule =
      fleet_detail::build_schedule(fleet);
  std::vector<std::uint64_t> load(cores, 0);
  std::vector<char> assigned(fleet.connections, 0);
  for (const ScheduledBurst& b : schedule) {
    if (!assigned[b.flow]) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cores; ++c) {
        if (load[c] < load[best]) best = c;
      }
      map[b.flow] = static_cast<std::uint32_t>(best);
      assigned[b.flow] = 1;
    }
    load[map[b.flow]] += b.len;
  }
  for (std::size_t i = 0; i < fleet.connections; ++i) {
    if (!assigned[i]) map[i] = hash_core(fleet, key, i, cores);
  }
  return map;
}

Outcome run(const ShardRunSpec& spec) {
  // Flatten to (row, core) jobs so one wide row parallelizes across the
  // pool; the schedule and steering are computed serially up front (pure
  // functions of the spec, cheap), the merges serially at the end.
  struct RowPlan {
    std::vector<ScheduledBurst> schedule;
    std::vector<std::uint32_t> flow_core;
    std::vector<fleet_detail::CoreWork> work;  ///< per core
    bool local_ports = false;
    std::vector<driver::Run> per_core;
  };
  std::vector<RowPlan> plans(spec.rows.size());
  struct Job {
    std::size_t row;
    std::size_t core;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < spec.rows.size(); ++i) {
    const ShardSpec& row = spec.rows[i];
    driver::check_costs("run_sharded_fleet", row.fleet, spec.costs);
    if (row.cores == 0 || !std::isfinite(row.arrival_us) ||
        row.arrival_us < 0) {
      throw std::invalid_argument(
          "run_sharded_fleet: cores must be >= 1 and arrival_us finite and "
          ">= 0");
    }
    RowPlan& p = plans[i];
    p.schedule = fleet_detail::build_schedule(row.fleet);
    p.flow_core = steer_flows(row.fleet, row.cores, row.steering);
    p.work = fleet_detail::split_schedule(p.schedule, p.flow_core, row.cores);
    p.local_ports = row.fleet.connections > kMaxFlowsPerWorld;
    p.per_core.resize(row.cores);
    for (std::size_t c = 0; c < row.cores; ++c) jobs.push_back({i, c});
  }

  Outcome o;
  o.workers_used =
      run_indexed_jobs(jobs.size(), spec.common.workers, [&](std::size_t j) {
        const Job job = jobs[j];
        RowPlan& p = plans[job.row];
        p.per_core[job.core] = fleet_detail::run_fleet_core(
            spec.rows[job.row].fleet, spec.costs, p.work[job.core],
            p.local_ports);
      });
  for (std::size_t i = 0; i < spec.rows.size(); ++i) {
    o.shard.push_back(merge_cores(spec.rows[i], plans[i].schedule,
                                  plans[i].flow_core,
                                  std::move(plans[i].per_core)));
  }
  emit(o, shard_json(spec.costs, o.shard), spec.common);
  return o;
}

ShardResult run_sharded_fleet(const ShardSpec& spec,
                              const BurstCostTable& costs) {
  ShardRunSpec rs;
  rs.common.workers = 1;
  rs.rows = {spec};
  rs.costs = costs;
  return run(rs).shard.front();
}

Json shard_json(const BurstCostTable& costs,
                const std::vector<ShardResult>& rows) {
  Json section = emit_section("shard", 2);
  section.set("costs", costs_json(costs));
  Json out_rows = Json::array();
  for (const ShardResult& r : rows) {
    const FleetSpec& s = r.spec.fleet;
    Json per_core = Json::array();
    for (const ShardCoreStats& c : r.cores) {
      Json core = Json::object()
                      .set("core", static_cast<std::uint64_t>(c.core))
                      .set("flows", static_cast<std::uint64_t>(c.flows));
      set_counts(core, c)
          .set("service_us", percentiles_json(c.service))
          .set("sojourn_us", percentiles_json(c.sojourn))
          .set("busy_us", c.busy_us)
          .set("utilization", c.utilization)
          .set("max_wait_us", c.max_wait_us)
          .set("sim_us", c.sim_us)
          .set("sample_digest", c.sample_digest);
      per_core.push_back(std::move(core));
    }
    Json row = fleet_row_json(s, /*with_kind=*/true);
    row.set("rules", static_cast<std::uint64_t>(s.rules))
        .set("rule_seed", s.rule_seed)
        .set("cache_costs", Json::object()
                                .set("measured", s.cache_costs.measured)
                                .set("hit_us", s.cache_costs.hit_us)
                                .set("probe_us", s.cache_costs.probe_us)
                                .set("per_rule_us", s.cache_costs.per_rule_us))
        .set("churn_every", s.churn_every)
        .set("cores", static_cast<std::uint64_t>(r.spec.cores))
        .set("steering", to_string(r.spec.steering))
        .set("arrival_us", r.spec.arrival_us);
    set_counts(row, r)
        .set("latency_us", percentiles_json(r.latency))
        .set("sojourn_us", percentiles_json(r.sojourn))
        .set("sim_us", r.sim_us)
        .set("sample_digest", r.sample_digest)
        .set("makespan_us", r.makespan_us)
        .set("throughput_mpps", r.throughput_mpps)
        .set("hot_core", static_cast<std::uint64_t>(r.hot_core))
        .set("conserved", r.conserved)
        .set("per_core", std::move(per_core));
    out_rows.push_back(std::move(row));
  }
  section.set("rows", std::move(out_rows));
  return section;
}

}  // namespace l96::harness
