// trace_dump: capture and publish protocol-processing traces, in the spirit
// of the paper's FTP-published instruction traces.
//
// Usage: trace_dump [tcp|rpc] [CONFIG] [path|machine]
//   CONFIG   one of BAD/STD/OUT/CLO/PIN/ALL (default STD)
//   path     (default) the captured event trace, text format
//   machine  the lowered instruction trace under CONFIG's code image
#include <iostream>
#include <string>

#include "code/trace_io.h"
#include "harness/argparse.h"
#include "harness/experiment.h"

using namespace l96;

int main(int argc, char** argv) {
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig cfg = code::StackConfig::Std();
  bool machine = false;

  harness::ArgParser parser(
      "trace_dump", "write one captured client roundtrip trace to stdout");
  parser.add_positional("tcp|rpc", "protocol stack (default tcp)",
                        [&](const std::string& v) {
                          if (v != "tcp" && v != "rpc") return false;
                          kind = v == "rpc" ? net::StackKind::kRpc
                                            : net::StackKind::kTcpIp;
                          return true;
                        });
  parser.add_positional("CONFIG",
                        "one of BAD/STD/OUT/CLO/PIN/ALL (default STD)",
                        [&](const std::string& v) {
                          for (const auto& c : harness::paper_configs()) {
                            if (c.name == v) {
                              cfg = c;
                              return true;
                            }
                          }
                          return false;
                        });
  parser.add_positional(
      "path|machine",
      "the captured event trace (default) or its lowered instructions",
      [&](const std::string& v) {
        if (v != "path" && v != "machine") return false;
        machine = v == "machine";
        return true;
      });
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;

  const auto scfg =
      kind == net::StackKind::kRpc ? code::StackConfig::All() : cfg;
  const harness::Capture cap = harness::capture_world(kind, cfg, scfg);
  if (machine) {
    code::write_machine_trace(
        std::cout,
        harness::lower_trace(harness::side_spec(
            cap, harness::Side::kClient, cfg, harness::MachineParams{})));
  } else {
    code::write_path_trace(std::cout, cap.traces.client,
                           &cap.world->client().registry());
  }
  return 0;
}
