// Ablation: packet-classifier overhead vs path-inlining benefit.
//
// The paper evaluates PIN/ALL assuming a zero-overhead classifier and notes
// real classifiers cost 1-4 us per packet on this hardware.  This bench
// sweeps that cost: beyond ~1-2 us the classifier eats path-inlining's
// entire advantage over CLO — quantifying the paper's caveat.  Classifier
// overhead is a replay-time parameter, so fifteen jobs need only two
// captures (CLO's and PIN/ALL's functional traces).
//
// The bench also audits its own cost accounting: the overhead must be
// charged on every inbound packet of every path-inlined side — one per
// side per roundtrip — in both the headline te and the per-sample means.
// Two path-inlined sides at overhead `ov` must therefore shift each
// sampled roundtrip by exactly 2*ov relative to the ov=0 row (and CLO
// rows, with no inlined side, by exactly 0); any drift exits nonzero.
//
// Exactly-one-model pin: the flat knob swept here and the flow-cache cost
// model (FlowCacheCosts, measured by harness/classify.h) are mutually
// exclusive ways to price the same classification — charging both would
// double-count it.  The repo enforces the split at the entry points:
// run_sharded_fleet and measure_classifier_costs reject any MachineParams
// with a nonzero classifier_overhead_us.  This bench owns the flat knob,
// so it also pins the rejection: both calls must throw, or the exit goes
// nonzero.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "harness/classify.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "harness/tables.h"

using namespace l96;

int main() {
  const double overheads[] = {0.0, 0.5, 1.0, 2.0, 4.0};

  std::vector<harness::SweepJob> jobs;
  for (double ov : overheads) {
    harness::MachineParams params;
    params.classifier_overhead_us = ov;
    for (const auto& cfg : {code::StackConfig::Clo(), code::StackConfig::Pin(),
                            code::StackConfig::All()}) {
      harness::SweepJob j;
      j.label = cfg.name + std::string("/ov") + harness::fmt(ov, 1);
      j.client = j.server = cfg;
      j.params = params;
      j.te_sample_count = 2;
      jobs.push_back(std::move(j));
    }
  }

  harness::SweepRunner runner;
  const auto outcomes = runner.run(jobs);

  // Audit: per-packet charging.  Jobs are laid out as 3 configs per
  // overhead; the traces and scrub seeds are identical across overhead
  // values, so each sample must differ from its ov=0 counterpart by the
  // overhead times the number of path-inlined sides — exactly.
  int audit_failures = 0;
  for (std::size_t i = 0; i < std::size(overheads); ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const auto& base = outcomes[c];            // ov = 0 row, same config
      const auto& row = outcomes[3 * i + c];
      const int inlined_sides = c == 0 ? 0 : 2;  // CLO vs PIN/ALL
      const double want = overheads[i] * inlined_sides;
      for (std::size_t s = 0; s < row.te_samples.size(); ++s) {
        const double got = row.te_samples[s] - base.te_samples[s];
        if (std::fabs(got - want) > 1e-9) {
          std::fprintf(stderr,
                       "FAIL: %s sample %zu charges %.12f us of classifier "
                       "overhead, want %.12f (%d inlined side(s) x %.1f)\n",
                       row.label.c_str(), s, got, want, inlined_sides,
                       overheads[i]);
          ++audit_failures;
        }
      }
      const double te_delta = row.result.te_us - base.result.te_us;
      if (std::fabs(te_delta - want) > 1e-9) {
        std::fprintf(stderr,
                     "FAIL: %s te_us charges %.12f us of classifier "
                     "overhead, want %.12f\n",
                     row.label.c_str(), te_delta, want);
        ++audit_failures;
      }
    }
  }

  harness::Table t(
      "Ablation: classifier overhead vs path-inlining benefit (TCP/IP)");
  t.columns({"classifier [us/pkt]", "CLO Te [us]", "PIN Te [us]",
             "ALL Te [us]", "PIN still wins?"});
  for (std::size_t i = 0; i < std::size(overheads); ++i) {
    const auto& clo = outcomes[3 * i].result;
    const auto& pin = outcomes[3 * i + 1].result;
    const auto& all = outcomes[3 * i + 2].result;
    t.row({harness::fmt(overheads[i]), harness::fmt(clo.te_us),
           harness::fmt(pin.te_us), harness::fmt(all.te_us),
           pin.te_us < clo.te_us ? "yes" : "no"});
  }
  t.print();

  // Exactly-one-model pin: with the flat knob set, the FlowCacheCosts
  // pricing paths must refuse to run.
  {
    harness::MachineParams flat;
    flat.classifier_overhead_us = 1.0;

    bool fleet_threw = false;
    try {
      harness::ShardSpec spec;
      spec.fleet.config = code::StackConfig::All();
      spec.fleet.params = flat;
      const harness::BurstCostTable costs = harness::measure_burst_costs(
          spec.fleet.kind, spec.fleet.config, 1, spec.fleet.params);
      harness::run_sharded_fleet(spec, costs);
    } catch (const std::invalid_argument&) {
      fleet_threw = true;
    }
    if (!fleet_threw) {
      std::fprintf(stderr,
                   "FAIL: run_sharded_fleet accepted a nonzero "
                   "classifier_overhead_us — classification would be "
                   "charged by both models\n");
      ++audit_failures;
    }

    bool measure_threw = false;
    try {
      harness::ClassifierCostSpec cs;
      cs.cfg = code::StackConfig::All();
      cs.params = flat;
      harness::measure_classifier_costs(cs);
    } catch (const std::invalid_argument&) {
      measure_threw = true;
    }
    if (!measure_threw) {
      std::fprintf(stderr,
                   "FAIL: measure_classifier_costs accepted a nonzero "
                   "classifier_overhead_us — the measured coefficients "
                   "would stack on the flat knob\n");
      ++audit_failures;
    }
  }

  harness::write_sweep_metrics("ablation_classifier", runner, jobs, outcomes);
  return audit_failures == 0 ? 0 : 1;
}
