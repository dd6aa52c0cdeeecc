// Table 1: Dynamic Instruction Count Reductions.
//
// Regenerates the paper's breakdown of the Section-2 "RISC-motivated"
// changes by toggling each one off against the improved (STD) baseline and
// measuring the client's dynamic trace length per roundtrip.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/tables.h"

using namespace l96;

static std::uint64_t instructions(const code::StackConfig& cfg) {
  const harness::Capture cap =
      harness::capture_world(net::StackKind::kTcpIp, cfg, cfg);
  return harness::lower_trace(harness::side_spec(cap, harness::Side::kClient,
                                                 cfg, harness::MachineParams{}))
      .size();
}

int main() {
  const std::uint64_t improved = instructions(code::StackConfig::Std());

  struct Row {
    const char* technique;
    void (*off)(code::StackConfig&);
    int paper;
  };
  const Row rows[] = {
      {"Change bytes and shorts to words in TCP state",
       [](code::StackConfig& c) { c.tcb_word_fields = false; }, 324},
      {"More efficiently refresh message after processing",
       [](code::StackConfig& c) { c.msg_refresh_shortcut = false; }, 208},
      {"Use USC in LANCE to avoid descriptor copying",
       [](code::StackConfig& c) { c.usc_sparse_descriptors = false; }, 171},
      {"Inlined hash-table cache test",
       [](code::StackConfig& c) { c.inline_map_cache_test = false; }, 120},
      {"Various inlining",
       [](code::StackConfig& c) { c.careful_inlining = false; }, 119},
      {"Avoid integer division",
       [](code::StackConfig& c) { c.avoid_int_division = false; }, 90},
      {"Other minor changes",
       [](code::StackConfig& c) { c.minor_opts = false; }, 39},
  };

  harness::Table t("Table 1: Dynamic Instruction Count Reductions");
  t.columns({"Technique", "Paper", "Measured"});
  std::uint64_t total = 0;
  for (const Row& r : rows) {
    code::StackConfig cfg = code::StackConfig::Std();
    r.off(cfg);
    const std::uint64_t saved = instructions(cfg) - improved;
    total += saved;
    t.row({r.technique, std::to_string(r.paper), std::to_string(saved)});
  }
  const std::uint64_t orig = instructions(code::StackConfig::Original());
  t.row({"Total (sum of rows)", "1071", std::to_string(total)});
  t.row({"Total (all off at once)", "1071", std::to_string(orig - improved)});
  t.print();
  return 0;
}
