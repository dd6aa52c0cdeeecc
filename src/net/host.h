// A simulated host: one complete protocol stack (TCP/IP or RPC) over a
// LANCE driver, with its own simulated-address arena, code registry, and
// trace recorder.
//
// Capture model: on the client, one steady-state roundtrip's protocol
// processing is exactly one receive-interrupt activation — the reply's
// inbound processing, the upcall that sends the next request (the full
// outbound chain), and the post-transmit work (descriptor completion,
// message refresh) that overlaps the frame's flight time.  arm_capture()
// records the next such activation; tx_split() reports where in the event
// stream the frame left for the wire, separating critical-path work from
// overlapped work.
//
// With path-inlining on, deliver() classifies every inbound frame (through
// the flow cache when one is installed), marks a mismatch as slow path,
// and reports the lookup to the deliver hook.  The classification itself
// is never traced: a capture holds protocol code only, and a lookup's cost
// comes from the flow cache's FlowCacheCosts.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "code/classifier.h"
#include "code/config.h"
#include "code/flow_cache.h"
#include "code/model.h"
#include "code/trace.h"
#include "net/wire.h"
#include "protocols/eth.h"
#include "protocols/ip.h"
#include "protocols/lance.h"
#include "protocols/rpc/bid.h"
#include "protocols/rpc/blast.h"
#include "protocols/rpc/chan.h"
#include "protocols/rpc/mselect.h"
#include "protocols/rpc/vchan.h"
#include "protocols/rpc/xrpctest.h"
#include "protocols/tcp.h"
#include "protocols/tcptest.h"
#include "protocols/vnet.h"
#include "xkernel/protocol.h"

namespace l96::net {

enum class StackKind { kTcpIp, kRpc, kLb };

struct HostAddress {
  std::uint32_t ip = 0;
  proto::MacAddr mac{};
  std::uint32_t boot_id = 1;
};

class Host {
 public:
  /// `tcp_conn_buckets` sizes the TCP demux map (power of two; ignored on
  /// RPC hosts) — shard-local fleets with thousands of connections pass a
  /// larger table so per-frame demux stays O(1).  `event_owner` overrides
  /// the default wire_port+1 failure-domain owner tag: multi-host worlds
  /// (the LB tier's backends all sit at wire port 1 of their own wires on
  /// one shared EventManager) pass distinct owners so crashing one host
  /// never purges another's timers.  kLb is not a Host stack — LbHost
  /// (net/lb.h) builds the forwarding tier; passing it here throws.
  Host(std::string name, StackKind kind, const code::StackConfig& cfg,
       HostAddress self, HostAddress peer, bool is_client,
       xk::EventManager& events, Wire& wire, int wire_port,
       std::size_t tcp_conn_buckets = 64, std::uint32_t event_owner = 0);
  /// Detaches the flow-cache invalidation hook before members destruct:
  /// ~Tcp() tears down live connections, and the hook must not touch the
  /// already-destroyed cache (flow_cache_ is declared after tcp_).
  ~Host();

  /// Frame delivery from the wire (the receive interrupt).
  void deliver(std::vector<std::uint8_t> frame);

  // --- failure domain -------------------------------------------------------
  /// Crash: discard every protocol object (connections, reassembly state,
  /// channels), purge this host's pending timers WITHOUT firing them
  /// (EventManager::purge_owner), and flush the dead incarnation's
  /// FlowCache entries.  Frames arriving while crashed are discarded and
  /// counted in frames_to_dead().
  void crash();
  /// Reinstall a fresh stack with a new incarnation (boot_id bumped, so
  /// BID detects the reboot and RST convergence kicks in for TCP).  Only
  /// valid on a crashed host; ends by invoking the reboot hook.
  void reboot();
  bool crashed() const noexcept { return crashed_; }
  /// Incarnation number: 1 at construction, +1 per reboot.
  std::uint32_t incarnation() const noexcept { return incarnation_; }
  std::uint64_t frames_to_dead() const noexcept { return frames_to_dead_; }
  /// Pending events purged across all crashes of this host.
  std::size_t purged_events() const noexcept { return purged_events_; }
  /// Invoked at the end of reboot(): harnesses re-listen / re-serve here.
  void set_reboot_hook(std::function<void()> h) {
    reboot_hook_ = std::move(h);
  }
  /// TCP survival knobs, stored on the host so they survive a crash/reboot
  /// cycle and are re-applied to the fresh stack (no-op on RPC hosts).
  void set_tcp_keepalive(std::uint64_t idle_us, std::uint64_t intvl_us,
                         std::uint32_t probes);
  void set_tcp_max_syn_rexmts(std::uint32_t n);

  /// This host's owner-tagged view of the event manager (owner = wire
  /// port + 1; owner 0 is infrastructure).
  xk::EventPort& event_port() noexcept { return port_; }

  /// Record the next receive activation into `sink`.
  void arm_capture(code::PathTrace* sink);
  /// Event index at which the (last) transmitted frame left for the wire
  /// during the captured activation.
  std::size_t tx_split() const noexcept { return tx_split_; }
  bool capture_complete() const noexcept { return capture_done_; }

  /// Packet-classifier statistics (meaningful when path-inlining is on).
  const code::PacketClassifier& classifier() const noexcept {
    return classifier_;
  }

  /// Replace the default hand-written classifier with a scaled rule set:
  /// `decoy_rules` seeded synthetic paths (protocols/rulegen.h) ahead of
  /// the real fast path.  Classification decisions only: captures never
  /// trace the lookup, which the flow cache's FlowCacheCosts prices
  /// (harness::measure_classifier_costs fits them from the lookup's code
  /// model).  With decoy_rules == 0 classification is identical to the
  /// default.
  void install_scaled_classifier(std::size_t decoy_rules, std::uint64_t seed);
  std::uint64_t classifier_hits() const noexcept { return classifier_hits_; }
  std::uint64_t classifier_misses() const noexcept {
    return classifier_misses_;
  }

  /// Install a flow cache (code/flow_cache.h) in front of the classifier's
  /// linear rule scan.  With path-inlining on, every inbound frame is
  /// looked up through the cache; a stale hit (flow invalidated by
  /// connection churn) fails the inlined composite's guard and routes the
  /// activation through the standalone slow path.  On TCP/IP hosts the
  /// demux map's unbind hook invalidates the closed connection's flow.
  void enable_flow_cache(code::FlowCacheScheme scheme, std::size_t capacity,
                         code::FlowCacheCosts costs = {});
  code::FlowCache* flow_cache() noexcept { return flow_cache_.get(); }
  const code::FlowCache* flow_cache() const noexcept {
    return flow_cache_.get();
  }

  /// Per-delivery observer, invoked once per inbound frame after
  /// classification when a flow cache is installed: the lookup result plus
  /// whether the activation took the standalone slow path.  The fleet
  /// engine uses this to collect per-packet latency samples.
  using DeliverHook =
      std::function<void(const code::FlowLookupResult&, bool slow_path)>;
  void set_deliver_hook(DeliverHook h) { deliver_hook_ = std::move(h); }

  // --- components -----------------------------------------------------------
  const std::string& name() const noexcept { return name_; }
  StackKind kind() const noexcept { return kind_; }
  const code::StackConfig& config() const noexcept { return cfg_; }
  code::CodeRegistry& registry() noexcept { return registry_; }
  code::Recorder& recorder() noexcept { return recorder_; }
  xk::SimAlloc& arena() noexcept { return arena_; }
  xk::ProtoCtx& ctx() noexcept { return *ctx_; }

  proto::Lance& lance() noexcept { return *lance_; }
  proto::Eth& eth() noexcept { return *eth_; }
  // TCP/IP stack (null on RPC hosts)
  proto::VNet* vnet() noexcept { return vnet_.get(); }
  proto::Ip* ip() noexcept { return ip_.get(); }
  proto::Tcp* tcp() noexcept { return tcp_.get(); }
  proto::TcpTest* tcptest() noexcept { return tcptest_.get(); }
  // RPC stack (null on TCP/IP hosts)
  proto::Blast* blast() noexcept { return blast_.get(); }
  proto::Bid* bid() noexcept { return bid_.get(); }
  proto::Chan* chan() noexcept { return chan_.get(); }
  proto::VChan* vchan() noexcept { return vchan_.get(); }
  proto::MSelect* mselect() noexcept { return mselect_.get(); }
  proto::XRpcTest* xrpctest() noexcept { return xrpctest_.get(); }

  const HostAddress& address() const noexcept { return self_; }
  const HostAddress& peer() const noexcept { return peer_; }
  bool is_client() const noexcept { return is_client_; }

 private:
  /// (Re)build the protocol stack: shared by the constructor and reboot().
  void build_stack();
  /// Destroy the protocol stack top-down (crash teardown).
  void teardown_stack();
  /// Re-wire the flow-cache invalidation hook to the current tcp_.
  void wire_flow_cache_hook();

  std::string name_;
  StackKind kind_;
  code::StackConfig cfg_;
  HostAddress self_;
  HostAddress peer_;
  bool is_client_;

  xk::SimAlloc arena_;
  code::Recorder recorder_;
  code::CodeRegistry registry_;
  xk::EventPort port_;
  Wire& wire_;
  int wire_port_;
  std::unique_ptr<xk::ProtoCtx> ctx_;

  bool crashed_ = false;
  std::uint32_t incarnation_ = 1;
  std::uint64_t frames_to_dead_ = 0;
  std::size_t purged_events_ = 0;
  std::function<void()> reboot_hook_;
  // TCP survival knobs, re-applied on every build_stack().
  std::uint64_t tcp_ka_idle_us_ = 0;
  std::uint64_t tcp_ka_intvl_us_ = 1'000'000;
  std::uint32_t tcp_ka_probes_ = 3;
  std::uint32_t tcp_max_syn_rexmts_ = 0;
  std::size_t tcp_conn_buckets_ = 64;  ///< demux map size, kept across reboots

  std::unique_ptr<proto::Lance> lance_;
  std::unique_ptr<proto::Eth> eth_;
  std::unique_ptr<proto::VNet> vnet_;
  std::unique_ptr<proto::Ip> ip_;
  std::unique_ptr<proto::Tcp> tcp_;
  std::unique_ptr<proto::TcpTest> tcptest_;
  std::unique_ptr<proto::Blast> blast_;
  std::unique_ptr<proto::Bid> bid_;
  std::unique_ptr<proto::Chan> chan_;
  std::unique_ptr<proto::VChan> vchan_;
  std::unique_ptr<proto::MSelect> mselect_;
  std::unique_ptr<proto::XRpcTest> xrpctest_;

  code::PathTrace* capture_sink_ = nullptr;
  std::size_t tx_split_ = 0;
  bool capture_done_ = false;

  // Path-inlining guard (Section 3.3): inbound frames are classified; a
  // mismatch routes the activation through the standalone slow-path code.
  code::PacketClassifier classifier_;
  std::uint64_t classifier_hits_ = 0;
  std::uint64_t classifier_misses_ = 0;
  // Optional flow cache front-ending the classifier's rule scan, with the
  // per-delivery observer the fleet engine samples through.
  std::unique_ptr<code::FlowCache> flow_cache_;
  DeliverHook deliver_hook_;
};

}  // namespace l96::net
