// Table 3: Comparison of TCP/IP Implementations.
//
// The 80386 column is [CJRS89]'s published count and the DEC Unix v3.2c
// column is the paper's trace measurement — both are reproduced as the
// paper's constants.  The x-kernel column is measured from our stack using
// the paper's preferred task-based boundaries: instructions executed
// between entering IP and entering TCP (ipDemux -> tcpDemux), and between
// entering TCP and delivery above TCP (tcpDemux -> clientStreamDemux).
#include <cstdio>
#include <string_view>

#include "harness/experiment.h"
#include "harness/tables.h"

using namespace l96;

namespace {

/// Index of the first call of `fn_name` in the client trace, or npos.
std::size_t find_client_call(const harness::Capture& cap,
                             std::string_view fn_name) {
  const code::FnId id = cap.world->client().registry().require(fn_name);
  const code::PathTrace& trace = cap.traces.client;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto& ev = trace.events[i];
    if (ev.kind == code::EventKind::kCall && ev.fn == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

int main() {
  const code::StackConfig std_cfg = code::StackConfig::Std();
  const harness::Capture cap =
      harness::capture_world(net::StackKind::kTcpIp, std_cfg, std_cfg);
  const harness::MeasureSpec client = harness::side_spec(
      cap, harness::Side::kClient, std_cfg, harness::MachineParams{});

  // Instructions executed before entering each boundary function.
  const auto before = [&](std::string_view fn_name) {
    return harness::lower_trace(client, find_client_call(cap, fn_name)).size();
  };
  const auto n_ip = before("ip_demux");
  const auto n_tcp = before("tcp_demux");
  const auto n_del = before("tcptest_recv");

  const std::size_t ip_to_tcp = n_tcp - n_ip;
  const std::size_t tcp_to_sock = n_del - n_tcp;

  harness::Table t("Table 3: Comparison of TCP/IP Implementations");
  t.columns({"Instructions executed...", "80386 [CJRS89]", "DEC Unix v3.2c",
             "x-kernel (this repo)"});
  t.row({"between IP input and TCP input", "262 (in ipintr ~57)", "437",
         std::to_string(ip_to_tcp)});
  t.row({"between TCP input and socket input", "276 (tcp_input)", "1004",
         std::to_string(tcp_to_sock)});
  t.row({"total (both tasks)", "n/a", "1441",
         std::to_string(ip_to_tcp + tcp_to_sock)});
  t.print();

  // mCPI context (Section 5): DEC Unix measured at 2.3 vs the optimally
  // configured x-kernel.
  auto all = harness::run_config(net::StackKind::kTcpIp,
                                 code::StackConfig::All(),
                                 code::StackConfig::All());
  std::printf("mCPI: DEC Unix (paper) = 2.3; x-kernel ALL (measured) = %.2f; "
              "x-kernel STD (measured) = %.2f\n",
              all.client.steady.mcpi(),
              harness::measure_side(client).steady.mcpi());
  std::printf("Paper note: x-kernel CPI 3.3 vs DEC Unix CPI 4.26 on the same "
              "task boundaries.\n");
  return 0;
}
