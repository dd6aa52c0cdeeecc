// Table 4: End-to-end Roundtrip Latency — six configurations, both stacks,
// mean +/- stddev and per-cent slowdown vs ALL.  Runs through SweepRunner:
// BAD/STD/OUT/CLO share one captured trace per stack.  Exits 1 unless the
// sample-mean Te falls BAD > STD > OUT > CLO > PIN > ALL on both stacks.
#include <cstdio>

#include "harness/sweep.h"
#include "harness/tables.h"

using namespace l96;

int main() {
  struct PaperRef {
    const char* name;
    double tcp, rpc;
  };
  const PaperRef paper[] = {
      {"BAD", 498.8, 457.1}, {"STD", 351.0, 399.2}, {"OUT", 336.1, 394.6},
      {"CLO", 325.5, 383.1}, {"PIN", 317.1, 367.3}, {"ALL", 310.8, 365.5},
  };

  const auto configs = harness::paper_configs();
  std::vector<harness::SweepJob> jobs;
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const bool rpc = kind == net::StackKind::kRpc;
    for (const auto& cfg : configs) {
      harness::SweepJob j;
      j.label = std::string(rpc ? "rpc/" : "tcpip/") + cfg.name;
      j.kind = kind;
      j.client = cfg;
      // RPC experiments pin the server at ALL (Section 4.2); TCP/IP applies
      // the configuration to both sides.
      j.server = rpc ? code::StackConfig::All() : cfg;
      j.te_sample_count = rpc ? 5 : 10;
      jobs.push_back(std::move(j));
    }
  }

  harness::SweepRunner runner;
  const auto outcomes = runner.run(jobs);

  bool ordered = true;
  std::size_t at = 0;
  for (auto kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    const bool rpc = kind == net::StackKind::kRpc;
    harness::Table t(std::string("Table 4: End-to-end Roundtrip Latency — ") +
                     (rpc ? "RPC" : "TCP/IP"));
    t.columns({"Version", "Te [us]", "D [%]", "paper Te", "paper D%"});

    std::vector<std::pair<std::string, harness::MeanSd>> rows;
    double best = 0;
    for (const auto& cfg : configs) {
      const auto ms = harness::mean_sd(outcomes[at++].te_samples);
      if (!rows.empty() && !(rows.back().second.mean > ms.mean)) {
        std::fprintf(stderr,
                     "FAIL: %s Te of %s (%.3f us) is not above %s (%.3f us)\n",
                     rpc ? "RPC" : "TCP/IP", rows.back().first.c_str(),
                     rows.back().second.mean, cfg.name.c_str(), ms.mean);
        ordered = false;
      }
      rows.emplace_back(cfg.name, ms);
      if (cfg.name == "ALL") best = ms.mean;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& [name, ms] = rows[i];
      const double delta = 100.0 * (ms.mean - best) / best;
      const double pte = rpc ? paper[i].rpc : paper[i].tcp;
      const double pbest = rpc ? paper[5].rpc : paper[5].tcp;
      t.row({name, harness::fmt_pm(ms.mean, ms.sd),
             "+" + harness::fmt(delta), harness::fmt(pte),
             "+" + harness::fmt(100.0 * (pte - pbest) / pbest)});
    }
    t.print();
  }

  harness::write_sweep_metrics("table4_end_to_end", runner, jobs, outcomes);
  return ordered ? 0 : 1;
}
