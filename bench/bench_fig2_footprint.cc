// Figure 2: Effects of Outlining and Cloning — rendered as ASCII i-cache
// footprint maps.  One character per cache set: '.' untouched, '+' one
// distinct block fetched, '#' several distinct blocks competing for the
// set.  Outlining compresses the mainline; cloning (bipartite) packs it
// contiguously; the pessimal layout concentrates everything onto a few
// sets.
#include <cstdio>

#include "code/analysis.h"
#include "harness/experiment.h"

using namespace l96;

int main() {
  const harness::Capture cap = harness::capture_world(
      net::StackKind::kTcpIp, code::StackConfig::Std(),
      code::StackConfig::Std());

  struct Panel {
    const char* caption;
    code::StackConfig cfg;
  };
  const Panel panels[] = {
      {"STD — link order, inline error code (gaps)", code::StackConfig::Std()},
      {"OUT — outlined: mainline compressed", code::StackConfig::Out()},
      {"CLO — outlining + cloning, bipartite layout",
       code::StackConfig::Clo()},
      {"ALL — path-inlined + bipartite", code::StackConfig::All()},
      {"BAD — pessimal layout (everything aliases)",
       code::StackConfig::Bad()},
  };

  std::printf("Figure 2: i-cache footprint (256 sets, 64 per row)\n");
  std::printf("'.' untouched   '+' one block   '#' conflicting blocks\n\n");
  for (const Panel& p : panels) {
    const auto trace = harness::lower_trace(harness::side_spec(
        cap, harness::Side::kClient, p.cfg, harness::MachineParams{}));
    const auto fp = code::footprint_stats(
        trace, code::CodeImage{} /* unused for counts */, 32);
    std::printf("-- %s --\n", p.caption);
    std::printf("%s", code::footprint_map(trace).c_str());
    std::printf("distinct blocks fetched: %llu, instructions: %zu\n\n",
                static_cast<unsigned long long>(fp.blocks_fetched),
                trace.size());
  }
  return 0;
}
