// missmap: cache-miss attribution maps for the paper configurations.
//
// Runs the usual capture + replay with a sim::MissProfiler attached and
// prints, per configuration, which functions miss, whose lines they evict
// (the conflict matrix behind the bipartite layout), and each owner's mCPI
// contribution.
//
// Usage: missmap [options]
//   --stack tcpip|rpc     protocol stack (default tcpip)
//   --config NAME|all     one of BAD/STD/OUT/CLO/PIN/ALL, or all (default STD)
//   --side client|server  which host's replay to print (default client)
//   --replay steady|cold  which replay's profile (default steady)
//   --cache i|d           instruction or data cache (default i)
//   --top N               rows per table (default 10)
//   --workers N           sweep worker threads (0 = hardware concurrency)
//   --json                emit the l96.missmap.v1 sections as JSON instead
//   --out FILE            also write the JSON sections to FILE
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/argparse.h"
#include "harness/missmap.h"
#include "harness/sweep.h"

using namespace l96;

int main(int argc, char** argv) {
  net::StackKind kind = net::StackKind::kTcpIp;
  std::string config = "STD";
  std::string side = "client";
  std::string replay = "steady";
  std::string cache = "i";
  std::uint64_t top = 10;
  unsigned workers = 0;
  bool json = false;
  std::string out_path;

  harness::ArgParser parser(
      "missmap", "cache-miss attribution maps for the paper configurations");
  parser.add_option("stack", "tcpip|rpc", "protocol stack (default tcpip)",
                    [&](const std::string& v) {
                      kind = v == "rpc" ? net::StackKind::kRpc
                                        : net::StackKind::kTcpIp;
                      return true;
                    });
  parser.add_option("config", "NAME|all",
                    "one of BAD/STD/OUT/CLO/PIN/ALL, or all (default STD)",
                    &config);
  parser.add_option("side", "client|server",
                    "which host's replay to print (default client)",
                    [&](const std::string& v) {
                      if (v != "client" && v != "server") return false;
                      side = v;
                      return true;
                    });
  parser.add_option("replay", "steady|cold",
                    "which replay's profile (default steady)",
                    [&](const std::string& v) {
                      if (v != "steady" && v != "cold") return false;
                      replay = v;
                      return true;
                    });
  parser.add_option("cache", "i|d", "instruction or data cache (default i)",
                    [&](const std::string& v) {
                      if (v != "i" && v != "d") return false;
                      cache = v;
                      return true;
                    });
  parser.add_option("top", "N", "rows per table (default 10, > 0)",
                    [&](const std::string& v) {
                      return harness::parse_unsigned(v, &top) && top > 0;
                    });
  parser.add_option("workers", "N",
                    "sweep worker threads (0 = hardware concurrency)",
                    &workers);
  parser.add_flag("json", "emit the l96.missmap.v1 sections as JSON instead",
                  &json);
  parser.add_option("out", "FILE", "also write the JSON sections to FILE",
                    &out_path);
  if (!parser.parse(argc, argv)) return parser.help_shown() ? 0 : 2;

  std::vector<code::StackConfig> cfgs;
  if (config == "all") {
    cfgs = harness::paper_configs();
  } else {
    for (const auto& c : harness::paper_configs()) {
      if (c.name == config) cfgs.push_back(c);
    }
    if (cfgs.empty()) {
      std::fprintf(stderr, "unknown config '%s' (try BAD/STD/OUT/CLO/PIN/ALL "
                           "or all)\n",
                   config.c_str());
      return 2;
    }
  }

  std::vector<harness::SweepJob> jobs;
  for (const auto& c : cfgs) {
    harness::SweepJob j;
    j.kind = kind;
    j.client = c;
    j.server = c;
    j.profile_misses = true;
    jobs.push_back(std::move(j));
  }
  harness::SweepRunner runner(workers);
  const auto outcomes = runner.run(jobs);

  if (json || !out_path.empty()) {
    harness::Json out = harness::Json::array();
    for (const auto& o : outcomes) {
      out.push_back(harness::Json::object()
                        .set("label", o.label)
                        .set("missmap", harness::missmap_json(o.result, top)));
    }
    if (!out_path.empty()) {
      const std::filesystem::path p(out_path);
      if (p.has_parent_path()) {
        std::filesystem::create_directories(p.parent_path());
      }
      std::ofstream f(out_path);
      f << out.dump() << "\n";
      if (!f) {
        std::fprintf(stderr, "missmap: cannot write %s\n", out_path.c_str());
        return 1;
      }
    }
    if (json) {
      out.dump(std::cout);
      std::cout << "\n";
      return 0;
    }
  }

  const char* stack_name = kind == net::StackKind::kRpc ? "rpc" : "tcpip";
  for (const auto& o : outcomes) {
    const harness::SideMeasurement& m =
        side == "server" ? o.result.server : o.result.client;
    const auto& profile = replay == "cold" ? m.miss_cold : m.miss_steady;
    if (!profile) {
      std::fprintf(stderr, "no %s profile for %s\n", replay.c_str(),
                   o.label.c_str());
      return 1;
    }
    const sim::MissProfile::Section& s =
        cache == "d" ? profile->dcache : profile->icache;
    std::cout << o.label << " (" << stack_name << ", " << side << ", "
              << replay << " replay, " << cache << "-cache)\n";
    harness::print_miss_section(std::cout, s, m.instructions, top);
    std::cout << "\n";
  }
  return 0;
}
