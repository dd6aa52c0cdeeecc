// Ablation: packet-classifier cost vs path-inlining benefit.
//
// The paper evaluates PIN/ALL assuming a zero-cost classifier and notes
// real classifiers cost 1-4 us per packet on this hardware.  This bench
// measures CLO, PIN and ALL once (one sweep, three jobs) and prices the
// classifier on top: every roundtrip classifies one inbound frame per
// path-inlined side, so a per-packet cost `ov` adds 2 * ov to PIN's and
// ALL's Te and nothing to CLO's.  Beyond ~1-2 us the classifier eats
// path-inlining's entire advantage over CLO — the paper's caveat.
//
// The last row charges the measured cost instead of a flat one: a full
// scan of the default TCP/IP classifier (harness::measure_classifier_costs,
// a cache miss matching the real path), replayed through the simulated
// caches under each config's own layout.
//
// Exit status is nonzero unless PIN beats CLO with a zero-cost classifier.
#include <cstdio>

#include "harness/classify.h"
#include "harness/sweep.h"
#include "harness/tables.h"

using namespace l96;

int main() {
  const code::StackConfig configs[] = {code::StackConfig::Clo(),
                                       code::StackConfig::Pin(),
                                       code::StackConfig::All()};
  std::vector<harness::SweepJob> jobs;
  for (const code::StackConfig& cfg : configs) {
    harness::SweepJob j;
    j.label = cfg.name;
    j.client = j.server = cfg;
    j.te_sample_count = 2;
    jobs.push_back(std::move(j));
  }
  harness::SweepRunner runner;
  const auto outcomes = runner.run(jobs);
  const double clo = outcomes[0].result.te_us;
  const double pin = outcomes[1].result.te_us;
  const double all = outcomes[2].result.te_us;

  harness::Table t(
      "Ablation: classifier overhead vs path-inlining benefit (TCP/IP)");
  t.columns({"classifier [us/pkt]", "CLO Te [us]", "PIN Te [us]",
             "ALL Te [us]", "PIN still wins?"});
  const auto row = [&](const std::string& label, double pin_ov,
                       double all_ov) {
    const double pin_te = pin + 2 * pin_ov;
    t.row({label, harness::fmt(clo), harness::fmt(pin_te),
           harness::fmt(all + 2 * all_ov), pin_te < clo ? "yes" : "no"});
  };
  for (const double ov : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    row(harness::fmt(ov), ov, ov);
  }
  const auto scan_us = [](const code::StackConfig& cfg) {
    harness::ClassifierCostSpec cs;
    cs.cfg = cfg;
    return harness::measure_classifier_costs(cs).miss_match.tp_us;
  };
  const double pin_scan = scan_us(configs[1]);
  const double all_scan = scan_us(configs[2]);
  row("scan " + harness::fmt(pin_scan, 2) + "/" + harness::fmt(all_scan, 2),
      pin_scan, all_scan);
  t.print();

  harness::write_sweep_metrics("ablation_classifier", runner, jobs, outcomes);
  if (!(pin < clo)) {
    std::fprintf(stderr,
                 "FAIL: PIN Te %.3f us is not below CLO's %.3f us with a "
                 "zero-cost classifier\n",
                 pin, clo);
    return 1;
  }
  return 0;
}
