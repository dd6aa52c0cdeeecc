// The benchmark's four workloads.  BENCHMARK.json lists paper_sweep and
// fleet_tcp; the other two run by name but repeat too loosely to gate on
// (perfbench/README.md says why).
//
// Each workload is built from the run's seed alone (the program under test
// receives only the generated specs), is set up from scratch by setup(),
// and exposes one timed engine call, run_once(), whose correctness is
// checked on every call.  probe() runs the per-layer probes of the traced
// run over the workload's own inputs (probes.h).
//
//   paper_sweep      Table 4's twelve rows (six configurations x two stacks)
//                    through SweepRunner, te samples under the seeded scrub
//                    seed.
//   fleet_tcp        100k TCP/IP flows, Zipf 1.1, LRU flow cache of 8, four
//                    simulated cores with hash steering, 0 rules.
//   fleet_rpc_rules  the same engine on RPC with 2048 seeded decoy rules and
//                    measured flow-cache costs.
//   failover         a run_recovery TCP row (512 connections, blackout plus
//                    server crash/reboot, keepalive armed) and a run_lb row
//                    (4 backends, 2000 connections, drain plus crash).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/json.h"
#include "metrics.h"
#include "spans.h"

namespace perfbench {

/// Correctness accounting.  One operation is an engine row, a sweep job,
/// or a stand-alone gate check; it fails if it throws or breaks a check.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Count one operation; record `what` as its failure unless `ok`.
  bool check(bool ok, const std::string& what);
};

/// What the Table-4 fidelity anchor of the last setup gave.
struct Anchor {
  /// Mean |simulated Te - paper Te| / paper Te over Table 4, in percent.
  double te_err_pct = 0;
  double te_all_tcpip_us = 0;  ///< simulated Te of ALL, TCP/IP
  double te_all_rpc_us = 0;    ///< simulated Te of ALL, RPC
};

/// One timed engine call.
struct Rep {
  double engine_s = 0;  ///< host seconds inside the engine call(s)
  double cpu_s = 0;     ///< process CPU seconds over the same interval
  double packets = 0;   ///< work for pkts_per_s
  double rows = 0;      ///< work for configs_per_s
  double workers_used = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  /// The generated spec, for the run manifest.
  virtual l96::harness::Json spec() const = 0;

  /// Everything before the first timed call, from scratch: the Table-4
  /// fidelity anchor (every workload), cost tables, classifier fits.
  virtual void setup(SpanRecorder& rec, Gate& gate) = 0;
  /// Checks that run once per process after setup (not timed).
  virtual void gate_once(SpanRecorder& rec, Gate& gate) = 0;
  /// The timed call and its correctness checks.  With an enabled recorder
  /// it also times the calls the traced run reports beside the engine
  /// (section emission, flow steering).
  virtual Rep run_once(SpanRecorder& rec, Gate& gate) = 0;
  /// Per-layer probes and result counts (traced runs only).
  virtual void probe(SpanRecorder& rec, MetricValues& out) = 0;

  const Anchor& anchor() const { return anchor_; }

 protected:
  Workload(std::uint64_t seed, unsigned workers)
      : seed_(seed), workers_(workers) {}

  /// Run the Table-4 anchor sweep serially into anchor_ and check the
  /// paper's configuration order.  Returns the sweep's canonical output.
  std::string run_anchor(SpanRecorder& rec, Gate& gate);

  std::uint64_t seed_;
  unsigned workers_;
  Anchor anchor_;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned workers);

}  // namespace perfbench
