// Example: interactive layout exploration (Figure-2 style).
//
// Captures one steady-state roundtrip of the chosen stack, lowers it under
// a chosen configuration/layout, and prints the i-cache footprint map plus
// the timing and miss profile — a direct view of what outlining, cloning
// and path-inlining do to the cache.
//
// Usage: layout_explorer [tcp|rpc] [STD|OUT|CLO|BAD|PIN|ALL|linear|micro|random]
#include <cstdio>
#include <cstring>
#include <string>

#include "code/analysis.h"
#include "harness/experiment.h"

using namespace l96;

static code::StackConfig config_by_name(const std::string& name) {
  for (const auto& c : harness::paper_configs()) {
    if (c.name == name) return c;
  }
  if (name == "linear" || name == "micro" || name == "random") {
    auto c = code::StackConfig::Clo();
    c.name = name;
    c.layout = name == "linear" ? code::LayoutKind::kLinear
               : name == "micro" ? code::LayoutKind::kMicroPosition
                                 : code::LayoutKind::kRandom;
    return c;
  }
  std::fprintf(stderr, "unknown configuration '%s'\n", name.c_str());
  std::exit(2);
}

int main(int argc, char** argv) {
  const net::StackKind kind =
      (argc > 1 && std::strcmp(argv[1], "rpc") == 0) ? net::StackKind::kRpc
                                                     : net::StackKind::kTcpIp;
  const std::string cfg_name = argc > 2 ? argv[2] : "ALL";
  const code::StackConfig cfg = config_by_name(cfg_name);
  const auto scfg =
      kind == net::StackKind::kRpc ? code::StackConfig::All() : cfg;

  const harness::MachineParams params;
  const harness::Capture cap = harness::capture_world(kind, cfg, scfg);
  const harness::MeasureSpec client =
      harness::side_spec(cap, harness::Side::kClient, cfg, params);
  const harness::ConfigResult r = harness::combine_sides(
      harness::measure_side(client),
      harness::measure_side(
          harness::side_spec(cap, harness::Side::kServer, scfg, params)),
      cap.controller_us);
  const sim::MachineTrace trace = harness::lower_trace(client);

  std::printf("stack: %s   configuration: %s\n",
              kind == net::StackKind::kRpc ? "RPC" : "TCP/IP",
              cfg.name.c_str());
  std::printf("\ni-cache footprint (256 sets, '.'=untouched '+'=one block "
              "'#'=conflict):\n%s\n",
              code::footprint_map(trace).c_str());
  std::printf("dynamic instructions : %llu (critical-path %llu)\n",
              (unsigned long long)r.client.instructions,
              (unsigned long long)r.client.critical_instructions);
  std::printf("static hot code      : %llu instructions "
              "(%llu with outlined/cold)\n",
              (unsigned long long)r.client.static_hot_words,
              (unsigned long long)r.client.static_total_words);
  std::printf("cold-cache replay    : i-miss %llu (repl %llu)  d-miss %llu  "
              "b-miss %llu (repl %llu)\n",
              (unsigned long long)r.client.cold.icache.misses,
              (unsigned long long)r.client.cold.icache.repl_misses,
              (unsigned long long)r.client.cold.dcache_combined.misses,
              (unsigned long long)r.client.cold.bcache.misses,
              (unsigned long long)r.client.cold.bcache.repl_misses);
  std::printf("steady-state replay  : Tp %.1f us  CPI %.2f = iCPI %.2f + "
              "mCPI %.2f\n",
              r.client.tp_us, r.client.steady.cpi(), r.client.steady.icpi(),
              r.client.steady.mcpi());
  std::printf("end-to-end roundtrip : %.1f us (%.1f us without wire + "
              "controller)\n",
              r.te_us, r.te_adjusted);
  return 0;
}
