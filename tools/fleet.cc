// Fleet CLI: run one flow-cache fleet row and print its stats + digest.
//
//   fleet [--burst N] [--cores N] [--steering hash|least] [--arrival-us X]
//         [--rules N] [--rule-seed N]
//         [--seed N] [--workers N] [--json] [--out FILE]
//         [tcp|rpc] [scheme] [connections] [packets] [zipf_s]
//         [seed] [capacity] [churn_every]
//
// `scheme` is one-behind | direct | lru.  Prints per-scheme hit/stale
// ratios, the per-packet latency percentiles, and the FNV-1a sample digest
// (compare digests across hosts/worker counts to check determinism).
//
// `--burst N` sends N back-to-back packets per scheduled flow draw
// (per-flow coalescing); packets after the first in a burst are priced at
// their burst position from the position-indexed cost table, so they pay
// the amortized cost of the cache residue their predecessors left behind.
// The default (no flag) is batch 1 — every packet is an independent
// first-in-burst activation, byte-identical to the pre-burst engine.
//
// `--rules N` grows the server's classifier to N decoy paths ahead of the
// real fast path (protocols/rulegen.h; --rule-seed picks the generated
// set) and replaces the analytic flow-cache cost constants with measured
// coefficients: the classification code is registered in the code model
// and its hit / match / no-match activations are replayed through the
// simulated caches (harness/classify.h) before the row runs.
//
// `--cores N` shards the fleet across N simulated cores (RSS flow
// steering, per-core machine models — see harness/shard.h); --steering
// picks the flow->core policy and --arrival-us enables the open-loop
// queueing view.  The default (--cores 1) is the single-machine row.
// --json emits the row's schema-versioned section (l96.shard.v2) to
// stdout instead of text; --out also writes it to FILE.
// Exit status is 0 on success, 1 on a rejected row (e.g. a non-finite
// --arrival-us or zipf_s) or a failed shard invariant, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "harness/argparse.h"
#include "harness/classify.h"
#include "harness/runner.h"

int main(int argc, char** argv) {
  using namespace l96;

  harness::ShardSpec shard;
  harness::FleetSpec& spec = shard.fleet;
  spec.kind = net::StackKind::kTcpIp;
  spec.config = code::StackConfig::All();
  spec.scheme = code::FlowCacheScheme::kLru;
  spec.connections = 8;
  spec.packets = 128;
  spec.batch = 1;
  spec.zipf_s = 1.1;
  spec.seed = 1;
  spec.cache_capacity = 8;
  spec.churn_every = 0;

  std::string steering = "hash";

  harness::ArgParser parser(
      "fleet", "run one flow-cache fleet row (optionally sharded across "
               "simulated cores) and print its stats + digest");
  harness::CommonCliArgs common;
  common.add_to(parser);
  parser.add_option("burst", "N", "packets per scheduled flow draw (>0)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &spec.batch) &&
                             spec.batch > 0;
                    });
  std::uint64_t cores = 1;
  parser.add_option("cores", "N", "simulated cores to shard across (>0)",
                    &cores);
  parser.add_option("steering", "hash|least",
                    "flow->core steering policy (sharded runs)", &steering);
  parser.add_option("arrival-us", "X",
                    "open-loop arrival spacing for the queueing view "
                    "(sharded runs; 0 = closed loop)",
                    &shard.arrival_us);
  parser.add_option("rules", "N",
                    "decoy classifier paths on the server; measured "
                    "flow-cache costs (default 0 = analytic)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &spec.rules);
                    });
  parser.add_option("rule-seed", "N", "rule-generator seed (default 1)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &spec.rule_seed);
                    });
  parser.add_positional("stack", "tcp|rpc (default tcp)",
                        [&](const std::string& v) {
                          if (v == "rpc") {
                            spec.kind = net::StackKind::kRpc;
                            return true;
                          }
                          return v == "tcp";
                        });
  parser.add_positional("scheme", "one-behind|direct|lru (default lru)",
                        [&](const std::string& v) {
                          const auto s = code::flow_cache_scheme_from_string(v);
                          if (!s) return false;
                          spec.scheme = *s;
                          return true;
                        });
  parser.add_positional("connections", "fleet population (default 8)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(
                                     v, &spec.connections) &&
                                 spec.connections > 0;
                        });
  parser.add_positional("packets", "scheduled packets (default 128)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(v, &spec.packets) &&
                                 spec.packets > 0;
                        });
  parser.add_positional("zipf_s", "Zipf exponent (default 1.1)",
                        [&](const std::string& v) {
                          return harness::parse_double(v, &spec.zipf_s);
                        });
  parser.add_positional("seed", "schedule seed (default 1)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(v, &common.seed);
                        });
  parser.add_positional("capacity", "flow-cache capacity (default 8)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(
                                     v, &spec.cache_capacity) &&
                                 spec.cache_capacity > 0;
                        });
  parser.add_positional("churn_every",
                        "churn flow 0 every N packets (default 0 = never)",
                        [&](const std::string& v) {
                          return harness::parse_unsigned(v, &spec.churn_every);
                        });
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;
  if (cores == 0) {
    std::fprintf(stderr, "fleet: --cores must be > 0\n");
    return 2;
  }
  shard.cores = cores;
  spec.seed = common.seed;
  try {
    shard.steering = harness::steering_policy_from_string(steering);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 2;
  }
  spec.label = std::string(spec.kind == net::StackKind::kRpc ? "rpc" : "tcp") +
               "/" + code::to_string(spec.scheme);

  // Positions converge within a few packets; 8 table entries cover any
  // batch size (fast_at/slow_at clamp to the steady-amortized floor).
  const std::size_t positions = std::min<std::size_t>(spec.batch, 8);
  const harness::BurstCostTable costs =
      harness::measure_burst_costs(spec.kind, spec.config, positions);

  if (spec.rules > 0) {
    harness::ClassifierCostSpec cs;
    cs.kind = spec.kind;
    cs.cfg = spec.config;
    cs.rules = spec.rules;
    cs.rule_seed = spec.rule_seed;
    const harness::ClassifierCostMeasurement m =
        harness::measure_classifier_costs(cs);
    spec.cache_costs = m.costs;
    std::fprintf(stderr,
                 "fleet: measured classifier costs for %zu rules "
                 "(%zu tuples, %s engine): hit=%.3fus probe=%.3fus "
                 "per_rule=%.4fus\n",
                 spec.rules, m.num_tuples,
                 m.tuple_engine ? "tuple" : "linear", m.costs.hit_us,
                 m.costs.probe_us, m.costs.per_rule_us);
  }

  harness::ShardRunSpec rs;
  rs.common.workers = common.workers;
  rs.common.out_path = common.out;
  rs.rows = {shard};
  rs.costs = costs;
  harness::Outcome o;
  try {
    o = harness::run(rs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 1;
  }
  const harness::ShardResult& r = o.shard.front();
  if (common.json) {
    o.section.dump(std::cout);
    std::cout << "\n";
    return r.conserved ? 0 : 1;
  }

  std::printf(
      "%s cores=%zu steering=%s conns=%zu packets=%llu batch=%zu zipf=%.2f "
      "seed=%llu cap=%zu churn=%llu arrival_us=%.2f\n",
      spec.label.c_str(), shard.cores, harness::to_string(shard.steering),
      spec.connections, static_cast<unsigned long long>(spec.packets),
      spec.batch, spec.zipf_s, static_cast<unsigned long long>(spec.seed),
      spec.cache_capacity, static_cast<unsigned long long>(spec.churn_every),
      shard.arrival_us);
  std::printf(
      "  sampled=%llu (scheduled=%llu handshake=%llu dropped=%llu) "
      "bursts=%llu hit=%.4f slow=%llu churns=%llu\n",
      static_cast<unsigned long long>(r.packets_sampled),
      static_cast<unsigned long long>(r.scheduled_sampled),
      static_cast<unsigned long long>(r.handshake_sampled),
      static_cast<unsigned long long>(r.dropped_in_churn),
      static_cast<unsigned long long>(r.bursts), r.cache.hit_ratio(),
      static_cast<unsigned long long>(r.slow_packets),
      static_cast<unsigned long long>(r.churns));
  std::printf("  stale=%.4f lookup_cost=%.2fus  service_us p90=%.2f "
              "max=%.2f\n",
              r.cache.stale_ratio(), r.cache.cost_us, r.latency.p90,
              r.latency.max);
  std::printf(
      "  service_us p50=%.2f p99=%.2f p999=%.2f mean=%.2f  "
      "sojourn_us p50=%.2f p99=%.2f p999=%.2f\n",
      r.latency.p50, r.latency.p99, r.latency.p999, r.latency.mean,
      r.sojourn.p50, r.sojourn.p99, r.sojourn.p999);
  std::printf(
      "  makespan=%.1fus throughput=%.4fMpps hot_core=%u conserved=%d\n",
      r.makespan_us, r.throughput_mpps, r.hot_core, r.conserved ? 1 : 0);
  std::printf("  costs controller=%.1fus fast[0]=%.3fus slow[0]=%.3fus\n",
              costs.controller_us, costs.fast_us.front(),
              costs.slow_us.front());
  for (std::size_t p = 1; p < costs.positions(); ++p) {
    std::printf("        fast[%zu]=%.3fus slow[%zu]=%.3fus\n", p,
                costs.fast_us[p], p, costs.slow_us[p]);
  }
  for (const harness::ShardCoreStats& c : r.cores) {
    std::printf(
        "  core %u: flows=%zu sampled=%llu util=%.3f service_p999=%.2f "
        "sojourn_p999=%.2f max_wait=%.2f digest=%016llx\n",
        c.core, c.flows, static_cast<unsigned long long>(c.packets_sampled),
        c.utilization, c.service.p999, c.sojourn.p999, c.max_wait_us,
        static_cast<unsigned long long>(c.sample_digest));
  }
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(r.sample_digest));
  return r.conserved ? 0 : 1;
}
