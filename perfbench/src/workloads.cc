#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "harness/classify.h"
#include "harness/lb.h"
#include "harness/recovery.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "net/chaos.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {

using namespace l96;

bool Gate::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
  return ok;
}

namespace {

/// A distinct, reproducible input seed per (run seed, salt): splitmix64.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Seed salts, one per generated input.
constexpr std::uint64_t kSaltScrub = 1;
constexpr std::uint64_t kSaltFleetZipf = 2;
constexpr std::uint64_t kSaltRules = 3;
constexpr std::uint64_t kSaltRecovery = 4;
constexpr std::uint64_t kSaltLb = 5;

// Workload sizes.  The fleet populations, rule count, connection counts
// and scripts are the ones the workloads are defined by; the packet
// counts size one engine call to roughly a second on a 4-core host so a
// run holds several calls.
constexpr std::size_t kFleetFlows = 100'000;
constexpr std::size_t kFleetCores = 4;
constexpr std::uint64_t kFleetTcpPackets = 200'000;
constexpr std::uint64_t kFleetRpcPackets = 20'000;
constexpr std::size_t kRpcRules = 2048;
constexpr std::size_t kRecoveryConns = 512;
constexpr std::uint64_t kRecoveryPackets = 500;
constexpr std::size_t kLbBackends = 4;
constexpr std::size_t kLbConns = 2000;
constexpr std::uint64_t kLbPackets = 30'000;
constexpr const char* kRecoveryScript =
    "link_down@20000 link_up@120000 crash@200000:server reboot@400000:server";
constexpr const char* kLbScript =
    "drain@20000:backend1 undrain@220000:backend1 "
    "crash@300000:backend0 reboot@600000:backend0";
/// Key-stream entries the per-layer probes replay.
constexpr std::size_t kProbeStream = 200'000;

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Keeps the results of calls made only for their timing alive.
volatile std::size_t g_sink = 0;

/// Times one engine call: host seconds and process CPU seconds.
class EngineClock {
 public:
  EngineClock() : t0_(now_ns()), cpu0_(cpu_now_s()) {}
  void stop(Rep& rep) const {
    rep.engine_s += static_cast<double>(now_ns() - t0_) * 1e-9;
    rep.cpu_s += cpu_now_s() - cpu0_;
  }

 private:
  std::int64_t t0_;
  double cpu0_;
};

harness::MachineParams seeded_params(std::uint64_t seed) {
  harness::MachineParams p = harness::MachineParams::defaults();
  p.scrub_seed = derive_seed(seed, kSaltScrub);
  return p;
}

/// Table 4's twelve rows: six configurations on TCP/IP (both sides
/// configured) and on RPC (server pinned at ALL), with the bench's
/// te-sample counts.
std::vector<harness::SweepJob> table4_jobs(const harness::MachineParams& p) {
  std::vector<harness::SweepJob> jobs;
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const bool rpc = kind == net::StackKind::kRpc;
    for (const auto& cfg : harness::paper_configs()) {
      harness::SweepJob j;
      j.label = std::string(rpc ? "rpc/" : "tcpip/") + cfg.name;
      j.kind = kind;
      j.client = cfg;
      j.server = rpc ? code::StackConfig::All() : cfg;
      j.params = p;
      j.te_sample_count = rpc ? 5 : 10;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

/// Everything a sweep computes, with host timings left out: the byte
/// string two sweeps of the same jobs must reproduce exactly.
std::string canonical(const std::vector<harness::SweepOutcome>& outs) {
  std::ostringstream os;
  const auto side = [&](const harness::SideMeasurement& m) {
    os << ' ' << m.instructions << ' ' << m.critical_instructions << ' '
       << m.cold.cycles() << ' ' << m.steady.cycles() << ' '
       << m.critical.cycles() << ' ' << fmt_num(m.tp_us) << ' '
       << fmt_num(m.critical_us);
  };
  for (const auto& o : outs) {
    os << o.label << ' ' << fmt_num(o.result.te_us) << ' '
       << fmt_num(o.result.te_adjusted);
    side(o.result.client);
    side(o.result.server);
    for (double t : o.te_samples) os << ' ' << fmt_num(t);
    os << '\n';
  }
  return os.str();
}

struct SweepCheck {
  std::vector<double> te_tcpip, te_rpc;  ///< sample means, Table 4 order
};

/// Per-job and per-stack checks of a finished Table-4 sweep.
SweepCheck check_sweep(const std::vector<harness::SweepJob>& jobs,
                       const std::vector<harness::SweepOutcome>& outs,
                       Gate& gate) {
  SweepCheck c;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& o = outs[i];
    double sum = 0;
    bool finite = o.te_samples.size() == jobs[i].te_sample_count;
    for (double t : o.te_samples) {
      finite = finite && std::isfinite(t) && t > 0;
      sum += t;
    }
    gate.check(finite, jobs[i].label + ": te samples missing or not finite");
    const double mean =
        o.te_samples.empty()
            ? 0
            : sum / static_cast<double>(o.te_samples.size());
    (jobs[i].kind == net::StackKind::kRpc ? c.te_rpc : c.te_tcpip)
        .push_back(mean);
  }
  // The paper's ordering: BAD > STD > OUT > CLO > PIN > ALL on both stacks.
  for (const auto* te : {&c.te_tcpip, &c.te_rpc}) {
    bool ordered = te->size() == 6;
    for (std::size_t i = 1; ordered && i < te->size(); ++i) {
      ordered = (*te)[i - 1] > (*te)[i];
    }
    gate.check(ordered, std::string(te == &c.te_rpc ? "rpc" : "tcpip") +
                            ": Te does not fall BAD > STD > OUT > CLO > PIN > "
                            "ALL");
  }
  return c;
}

harness::Json fleet_spec_json(const harness::FleetSpec& f) {
  return harness::Json::object()
      .set("label", f.label)
      .set("stack", f.kind == net::StackKind::kRpc ? "rpc" : "tcpip")
      .set("config", f.config.name)
      .set("connections", static_cast<std::uint64_t>(f.connections))
      .set("packets", f.packets)
      .set("batch", static_cast<std::uint64_t>(f.batch))
      .set("zipf_s", f.zipf_s)
      .set("seed", f.seed)
      .set("scheme", code::to_string(f.scheme))
      .set("cache_capacity", static_cast<std::uint64_t>(f.cache_capacity))
      .set("rules", static_cast<std::uint64_t>(f.rules))
      .set("rule_seed", f.rule_seed);
}

/// The Zipf key stream a fleet draws, restricted to the flows `core` owns
/// and renumbered to that core's local flow indices (ascending global
/// order, as the sharded engine opens them).
void core_key_stream(const harness::FleetSpec& fleet,
                     const std::vector<std::uint32_t>& flow_core,
                     std::uint32_t core, ProbeSpec& probe) {
  std::vector<std::uint32_t> local(flow_core.size(), 0);
  std::size_t n = 0;
  for (std::size_t i = 0; i < flow_core.size(); ++i) {
    if (flow_core[i] == core) local[i] = static_cast<std::uint32_t>(n++);
  }
  probe.population = n;
  harness::ZipfSampler zipf(fleet.connections, fleet.zipf_s, fleet.seed);
  // The same sampler the engine's schedule draws from, continued to the
  // probe's stream length.
  for (std::size_t k = 0;
       k < 16 * kProbeStream && probe.key_stream.size() < kProbeStream; ++k) {
    const std::size_t f = zipf.next();
    if (flow_core[f] == core) probe.key_stream.push_back(local[f]);
  }
}

// ---------------------------------------------------------------------------

class PaperSweep final : public Workload {
 public:
  PaperSweep(std::uint64_t seed, unsigned workers)
      : Workload(seed, workers), jobs_(table4_jobs(seeded_params(seed))) {}

  const char* name() const override { return "paper_sweep"; }

  harness::Json spec() const override {
    harness::Json rows = harness::Json::array();
    for (const auto& j : jobs_) {
      rows.push_back(harness::Json::object()
                         .set("label", j.label)
                         .set("client", j.client.name)
                         .set("server", j.server.name)
                         .set("te_samples", j.te_sample_count));
    }
    return harness::Json::object()
        .set("engine", "SweepRunner")
        .set("scrub_seed", jobs_.front().params.scrub_seed)
        .set("rows", std::move(rows));
  }

  void setup(SpanRecorder& rec, Gate& gate) override {
    // The serial anchor is also the 1-worker reference every timed
    // 4-worker sweep must reproduce byte for byte.
    reference_ = run_anchor(rec, gate);
  }

  void gate_once(SpanRecorder&, Gate&) override {}

  Rep run_once(SpanRecorder& rec, Gate& gate) override {
    Rep rep;
    harness::SweepRunner runner(workers_);
    std::vector<harness::SweepOutcome> outs;
    {
      ScopedSpan engine(rec, "harness.engine");
      ScopedSpan call(rec, "harness.SweepRunner::run");
      EngineClock clock;
      outs = runner.run(jobs_);
      clock.stop(rep);
    }
    rep.rows = static_cast<double>(jobs_.size());
    for (const auto& j : jobs_) {
      rep.packets += 2.0 * static_cast<double>(1 + j.te_sample_count);
    }
    rep.workers_used = static_cast<double>(runner.workers_used());
    if (rec.enabled()) {
      ScopedSpan emit(rec, "harness.emit");
      std::ostringstream os;
      harness::write_sweep_json(os, "paper_sweep", runner, jobs_, outs);
    }
    check_sweep(jobs_, outs, gate);
    gate.check(canonical(outs) == reference_,
               "sweep output differs between 1 and " +
                   std::to_string(workers_) + " workers");
    return rep;
  }

  void probe(SpanRecorder& rec, MetricValues& out) override {
    ProbeSpec p;
    p.params = jobs_.front().params;
    for (const auto& j : jobs_) {
      p.captures.push_back({j.kind, j.client, j.server, 1 + j.te_sample_count});
    }
    // One ping-pong connection per world: population 1, every packet on
    // the same flow, the default classifier.
    p.flow_kind = net::StackKind::kTcpIp;
    p.population = 1;
    p.key_stream.assign(kProbeStream, 0);
    p.timer_depth = 2;
    std::string err;
    if (!run_probes(p, rec, out, &err)) throw std::runtime_error(err);
  }

 private:
  std::vector<harness::SweepJob> jobs_;
  std::string reference_;
};

// ---------------------------------------------------------------------------

class Fleet final : public Workload {
 public:
  Fleet(const char* name, net::StackKind kind, std::size_t rules,
        std::uint64_t packets, std::uint64_t seed, unsigned workers)
      : Workload(seed, workers), name_(name) {
    harness::FleetSpec& f = shard_.fleet;
    f.label = name;
    f.kind = kind;
    f.config = code::StackConfig::All();
    f.connections = kFleetFlows;
    f.packets = packets;
    f.batch = 1;
    f.zipf_s = 1.1;
    f.seed = derive_seed(seed, kSaltFleetZipf);
    f.scheme = code::FlowCacheScheme::kLru;
    f.cache_capacity = 8;
    f.rules = rules;
    f.rule_seed = derive_seed(seed, kSaltRules);
    f.params = seeded_params(seed);
    shard_.cores = kFleetCores;
    shard_.steering = harness::SteeringPolicy::kFlowHash;
  }

  const char* name() const override { return name_; }

  harness::Json spec() const override {
    return harness::Json::object()
        .set("engine", "harness::run(ShardRunSpec)")
        .set("fleet", fleet_spec_json(shard_.fleet))
        .set("cores", static_cast<std::uint64_t>(shard_.cores))
        .set("steering", harness::to_string(shard_.steering))
        .set("loop", "closed");
  }

  void setup(SpanRecorder& rec, Gate& gate) override {
    run_anchor(rec, gate);
    ScopedSpan tables(rec, "harness.cost_tables");
    {
      ScopedSpan s(rec, "harness.measure_burst_costs");
      costs_ = harness::measure_burst_costs(shard_.fleet.kind,
                                            shard_.fleet.config, 1,
                                            shard_.fleet.params);
    }
    if (shard_.fleet.rules > 0) {
      ScopedSpan s(rec, "harness.measure_classifier_costs");
      harness::ClassifierCostSpec cs;
      cs.kind = shard_.fleet.kind;
      cs.cfg = shard_.fleet.config;
      cs.rules = shard_.fleet.rules;
      cs.rule_seed = shard_.fleet.rule_seed;
      cs.params = shard_.fleet.params;
      shard_.fleet.cache_costs = harness::measure_classifier_costs(cs).costs;
    }
  }

  void gate_once(SpanRecorder& rec, Gate& gate) override {
    // Tuple and linear classification agree on the workload's rule set and
    // on frames of its own key stream.
    ScopedSpan s(rec, "gate.classifier_agreement");
    std::string err;
    gate.check(check_classifier_agreement(probe_spec(), &err),
               std::string(name_) + ": " + err);
  }

  Rep run_once(SpanRecorder& rec, Gate& gate) override {
    Rep rep;
    harness::ShardRunSpec rs;
    rs.common.label = name_;
    rs.common.workers = workers_;
    rs.rows = {shard_};
    rs.costs = costs_;
    harness::Outcome o;
    {
      ScopedSpan engine(rec, "harness.engine");
      ScopedSpan call(rec, "harness.run(ShardRunSpec)");
      EngineClock clock;
      o = harness::run(rs);
      clock.stop(rep);
    }
    rep.packets = static_cast<double>(shard_.fleet.packets);
    rep.rows = 1;
    rep.workers_used = static_cast<double>(o.workers_used);
    if (rec.enabled()) {
      {
        ScopedSpan s(rec, "harness.steer_flows");
        g_sink = harness::steer_flows(shard_.fleet, shard_.cores,
                                            shard_.steering).size();
      }
      ScopedSpan emit(rec, "harness.emit");
      g_sink = g_sink + harness::shard_json(costs_, o.shard).dump().size();
    }
    const harness::ShardResult& r = o.shard.at(0);
    bool ok =
        r.conserved &&
        r.spec.fleet.packets == r.scheduled_sampled + r.dropped_in_churn &&
        r.packets_sampled == r.scheduled_sampled + r.handshake_sampled &&
        r.cache.unmatched_scans == 0;
    if (digest_ == 0) digest_ = r.sample_digest;
    ok = ok && r.sample_digest == digest_;
    gate.check(ok, std::string(name_) + ": conservation, unmatched scans or "
                                        "digest check failed");
    last_ = r;
    return rep;
  }

  void probe(SpanRecorder& rec, MetricValues& out) override {
    std::string err;
    if (!run_probes(probe_spec(), rec, out, &err)) {
      throw std::runtime_error(err);
    }
    const double sampled = static_cast<double>(last_.packets_sampled);
    out["net.fleet.slow_frac"] =
        sampled > 0 ? static_cast<double>(last_.slow_packets) / sampled : 0;
    // The hot core's share of all service time (0.25 on four evenly
    // loaded cores).  Its own utilization is 1 by construction in a closed
    // loop, where the makespan is the hot core's busy time.
    double busy = 0;
    for (const auto& c : last_.cores) busy += c.busy_us;
    out["net.fleet.hot_core_util"] =
        busy > 0 ? last_.cores.at(last_.hot_core).busy_us / busy : 0;
    out["code.flow_cache_hit_ratio"] = last_.cache.hit_ratio();
    out["code.unmatched_scans"] =
        static_cast<double>(last_.cache.unmatched_scans);
    out["model.service_p99_us"] = last_.latency.p99;
  }

 private:
  ProbeSpec probe_spec() const {
    ProbeSpec p;
    const harness::FleetSpec& f = shard_.fleet;
    p.params = f.params;
    p.captures.push_back({f.kind, f.config, f.config, 8});
    p.flow_kind = f.kind;
    core_key_stream(f, harness::steer_flows(f, shard_.cores, shard_.steering),
                    0, p);
    p.rules = f.rules;
    p.rule_seed = f.rule_seed;
    p.cache_scheme = f.scheme;
    p.cache_capacity = f.cache_capacity;
    p.cache_costs = f.cache_costs;
    // Closed loop, one packet in flight per world: its retransmit timer
    // and the wire delivery.
    p.timer_depth = 2;
    return p;
  }

  const char* name_;
  harness::ShardSpec shard_;
  harness::BurstCostTable costs_;
  std::uint64_t digest_ = 0;
  harness::ShardResult last_;
};

// ---------------------------------------------------------------------------

class Failover final : public Workload {
 public:
  Failover(std::uint64_t seed, unsigned workers) : Workload(seed, workers) {
    const harness::MachineParams params = seeded_params(seed);
    harness::FleetSpec& f = rec_.fleet;
    f.label = "failover/recovery";
    f.kind = net::StackKind::kTcpIp;
    f.config = code::StackConfig::All();
    f.connections = kRecoveryConns;
    f.packets = kRecoveryPackets;
    f.batch = 1;
    f.zipf_s = 1.1;
    f.seed = derive_seed(seed, kSaltRecovery);
    f.scheme = code::FlowCacheScheme::kLru;
    f.cache_capacity = 8;
    f.params = params;
    rec_.chaos = net::ChaosTimeline::parse(kRecoveryScript);
    // Keepalive armed: a crash leaves half-open connections the clients
    // must reap before they reconnect.
    rec_.keepalive_idle_us = 50'000;
    rec_.keepalive_intvl_us = 25'000;
    rec_.keepalive_probes = 2;

    lb_.label = "failover/lb";
    lb_.config = code::StackConfig::All();
    lb_.backends = kLbBackends;
    lb_.connections = kLbConns;
    lb_.packets = kLbPackets;
    lb_.batch = 1;
    lb_.zipf_s = 1.1;
    lb_.seed = derive_seed(seed, kSaltLb);
    lb_.chaos = net::ChaosTimeline::parse(kLbScript);
    lb_.params = params;
  }

  const char* name() const override { return "failover"; }

  harness::Json spec() const override {
    return harness::Json::object()
        .set("recovery",
             harness::Json::object()
                 .set("engine", "harness::run(RecoveryRunSpec)")
                 .set("fleet", fleet_spec_json(rec_.fleet))
                 .set("script", kRecoveryScript)
                 .set("keepalive_idle_us", rec_.keepalive_idle_us)
                 .set("keepalive_intvl_us", rec_.keepalive_intvl_us)
                 .set("keepalive_probes",
                      static_cast<std::uint64_t>(rec_.keepalive_probes)))
        .set("lb", harness::Json::object()
                       .set("engine", "harness::run(LbRunSpec)")
                       .set("config", lb_.config.name)
                       .set("backends",
                            static_cast<std::uint64_t>(lb_.backends))
                       .set("connections",
                            static_cast<std::uint64_t>(lb_.connections))
                       .set("packets", lb_.packets)
                       .set("zipf_s", lb_.zipf_s)
                       .set("seed", lb_.seed)
                       .set("script", kLbScript));
  }

  void setup(SpanRecorder& rec, Gate& gate) override {
    run_anchor(rec, gate);
    ScopedSpan tables(rec, "harness.cost_tables");
    {
      ScopedSpan s(rec, "harness.measure_burst_costs");
      burst_ = harness::measure_burst_costs(rec_.fleet.kind, rec_.fleet.config,
                                            1, rec_.fleet.params);
    }
    ScopedSpan s(rec, "harness.measure_lb_costs");
    lb_costs_ = harness::measure_lb_costs(lb_.config, lb_.params);
  }

  void gate_once(SpanRecorder&, Gate&) override {}

  Rep run_once(SpanRecorder& rec, Gate& gate) override {
    Rep rep;
    harness::RecoveryRunSpec rs;
    rs.common.workers = workers_;
    rs.rows = {rec_};
    rs.costs = burst_;
    harness::LbRunSpec ls;
    ls.common.workers = workers_;
    ls.rows = {lb_};
    ls.costs = lb_costs_;
    harness::Outcome ro, lo;
    {
      ScopedSpan engine(rec, "harness.engine");
      {
        ScopedSpan call(rec, "harness.run(RecoveryRunSpec)");
        EngineClock clock;
        ro = harness::run(rs);
        clock.stop(rep);
      }
      ScopedSpan call(rec, "harness.run(LbRunSpec)");
      EngineClock clock;
      lo = harness::run(ls);
      clock.stop(rep);
    }
    rep.packets = static_cast<double>(rec_.fleet.packets + lb_.packets);
    rep.rows = 2;
    rep.workers_used =
        static_cast<double>(std::max(ro.workers_used, lo.workers_used));
    if (rec.enabled()) {
      ScopedSpan emit(rec, "harness.emit");
      g_sink = harness::recovery_json(burst_, ro.recovery).dump().size() +
               harness::lb_json(lb_costs_, lo.lb).dump().size();
    }

    const harness::RecoveryResult& r = ro.recovery.at(0);
    bool ok = r.fleet.spec.packets == r.fleet.scheduled_sampled +
                                          r.fleet.dropped_in_churn +
                                          r.lost_packets;
    for (const auto& w : r.windows) ok = ok && w.recovered;
    if (rec_digest_ == 0) rec_digest_ = r.fleet.sample_digest;
    ok = ok && r.fleet.sample_digest == rec_digest_;
    gate.check(ok, "failover/recovery: conservation, recovery or digest "
                   "check failed");

    const harness::LbResult& l = lo.lb.at(0);
    bool lok = l.spec.packets == l.scheduled_sampled + l.lost_packets &&
               l.packets_sampled == l.scheduled_sampled + l.handshake_sampled;
    for (const auto& w : l.windows) lok = lok && w.steered_away;
    if (lb_digest_ == 0) lb_digest_ = l.sample_digest;
    lok = lok && l.sample_digest == lb_digest_;
    gate.check(lok, "failover/lb: conservation, steer-away or digest check "
                    "failed");
    last_rec_ = r;
    last_lb_ = l;
    return rep;
  }

  void probe(SpanRecorder& rec, MetricValues& out) override {
    ProbeSpec p;
    const harness::FleetSpec& f = rec_.fleet;
    p.params = f.params;
    p.captures.push_back({f.kind, f.config, f.config, 8});
    p.flow_kind = f.kind;
    // The recovery row's single world: every flow is local.
    core_key_stream(f, std::vector<std::uint32_t>(f.connections, 0), 0, p);
    p.cache_scheme = f.scheme;
    p.cache_capacity = f.cache_capacity;
    p.cache_costs = f.cache_costs;
    // Keepalive armed on both hosts: one pending keepalive per connection
    // per side.
    p.timer_depth = 2 * f.connections;
    p.backends = lb_.backends;
    // The LB script's pool states: all up, backend1 drained, all up,
    // backend0 crashed.
    p.alive_sets = {{true, true, true, true},
                    {true, false, true, true},
                    {true, true, true, true},
                    {false, true, true, true}};
    std::string err;
    if (!run_probes(p, rec, out, &err)) throw std::runtime_error(err);

    const harness::FleetResult& fr = last_rec_.fleet;
    out["net.recovery.frames_per_sched"] =
        static_cast<double>(fr.packets_sampled) /
        static_cast<double>(fr.spec.packets);
    out["net.recovery.reconnects"] = static_cast<double>(last_rec_.reconnects);
    out["net.lb.lost_packets"] = static_cast<double>(last_lb_.lost_packets);
    out["net.lb.rebuilds"] = static_cast<double>(last_lb_.rebuilds.size());
    out["code.flow_cache_hit_ratio"] = fr.cache.hit_ratio();
    out["code.unmatched_scans"] = static_cast<double>(fr.cache.unmatched_scans);
    out["model.service_p99_us"] = fr.latency.p99;
    out["model.recovery_p999_us"] = last_rec_.recovery.p999;
  }

 private:
  harness::RecoverySpec rec_;
  harness::LbSpec lb_;
  harness::BurstCostTable burst_;
  harness::LbCostTable lb_costs_;
  std::uint64_t rec_digest_ = 0;
  std::uint64_t lb_digest_ = 0;
  harness::RecoveryResult last_rec_;
  harness::LbResult last_lb_;
};

}  // namespace

std::string Workload::run_anchor(SpanRecorder& rec, Gate& gate) {
  ScopedSpan span(rec, "anchor.table4");
  const std::vector<harness::SweepJob> jobs = table4_jobs(seeded_params(seed_));
  harness::SweepRunner runner(1);
  std::vector<harness::SweepOutcome> outs;
  {
    ScopedSpan call(rec, "harness.SweepRunner::run");
    outs = runner.run(jobs);
  }
  const SweepCheck c = check_sweep(jobs, outs, gate);
  anchor_.te_err_pct = te_err_pct(c.te_tcpip, c.te_rpc);
  anchor_.te_all_tcpip_us = c.te_tcpip.back();
  anchor_.te_all_rpc_us = c.te_rpc.back();
  return canonical(outs);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned workers) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed, workers);
  if (name == "fleet_tcp") {
    return std::make_unique<Fleet>("fleet_tcp", net::StackKind::kTcpIp, 0,
                                   kFleetTcpPackets, seed, workers);
  }
  if (name == "fleet_rpc_rules") {
    return std::make_unique<Fleet>("fleet_rpc_rules", net::StackKind::kRpc,
                                   kRpcRules, kFleetRpcPackets, seed, workers);
  }
  if (name == "failover") return std::make_unique<Failover>(seed, workers);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
