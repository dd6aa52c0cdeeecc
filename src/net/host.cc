#include "net/host.h"

#include <stdexcept>

#include "protocols/rulegen.h"
#include "protocols/stack_code.h"

namespace l96::net {

namespace {

proto::RuleSetKind rule_set_kind(StackKind kind) {
  return kind == StackKind::kTcpIp ? proto::RuleSetKind::kTcpIp
                                   : proto::RuleSetKind::kRpc;
}

}  // namespace

Host::Host(std::string name, StackKind kind, const code::StackConfig& cfg,
           HostAddress self, HostAddress peer, bool is_client,
           xk::EventManager& events, Wire& wire, int wire_port,
           std::size_t tcp_conn_buckets, std::uint32_t event_owner)
    : name_(std::move(name)),
      kind_(kind),
      cfg_(cfg),
      self_(self),
      peer_(peer),
      is_client_(is_client),
      // Failure domain: wire port 0 -> owner 1, port 1 -> owner 2 (owner 0
      // is infrastructure and survives every crash); multi-host worlds
      // override via event_owner.
      port_(events, event_owner != 0
                        ? event_owner
                        : static_cast<std::uint32_t>(wire_port) + 1),
      wire_(wire),
      wire_port_(wire_port),
      tcp_conn_buckets_(tcp_conn_buckets),
      // The real fast-path rules of protocols/rulegen.h, no decoys.
      front_(recorder_, registry_, cfg.path_inlining,
             proto::build_scaled_classifier(rule_set_kind(kind), 0, 0)) {
  if (kind_ == StackKind::kLb) {
    throw std::invalid_argument(
        "Host: kLb is the forwarding tier; build a net::LbHost instead");
  }
  proto::register_common_code(registry_, cfg_);
  if (kind_ == StackKind::kTcpIp) {
    proto::register_tcpip_code(registry_, cfg_);
  } else {
    proto::register_rpc_code(registry_, cfg_);
  }

  ctx_ = std::make_unique<xk::ProtoCtx>(
      xk::ProtoCtx{arena_, port_, recorder_, registry_, cfg_});

  build_stack();
}

void Host::build_stack() {
  lance_ = std::make_unique<proto::Lance>(
      *ctx_, [this](std::vector<std::uint8_t> frame) {
        wire_.transmit(wire_port_, std::move(frame));
      });
  eth_ = std::make_unique<proto::Eth>(*ctx_, *lance_, self_.mac);

  if (kind_ == StackKind::kTcpIp) {
    vnet_ = std::make_unique<proto::VNet>(*ctx_);
    vnet_->add_route(peer_.ip, 24, eth_.get(), peer_.mac);
    ip_ = std::make_unique<proto::Ip>(*ctx_, *vnet_, self_.ip);
    eth_->attach(proto::kEtherTypeIp, ip_.get());
    proto::TcpParams tcp_params;
    tcp_params.conn_buckets = tcp_conn_buckets_;
    tcp_ = std::make_unique<proto::Tcp>(*ctx_, *ip_, tcp_params);
    if (tcp_ka_idle_us_ != 0) {
      tcp_->set_keepalive(tcp_ka_idle_us_, tcp_ka_intvl_us_, tcp_ka_probes_);
    }
    if (tcp_max_syn_rexmts_ != 0) {
      tcp_->set_max_syn_rexmts(tcp_max_syn_rexmts_);
    }
    tcptest_ = std::make_unique<proto::TcpTest>(*ctx_, *tcp_, is_client_);
    wire_flow_cache_hook();
  } else {
    blast_ = std::make_unique<proto::Blast>(*ctx_, *eth_, peer_.mac);
    bid_ = std::make_unique<proto::Bid>(*ctx_, *blast_, self_.boot_id);
    chan_ = std::make_unique<proto::Chan>(*ctx_, *bid_);
    bid_->on_peer_reboot([this] {
      chan_->flush();
      blast_->flush();
    });
    vchan_ = std::make_unique<proto::VChan>(*ctx_, *chan_);
    chan_->set_server(vchan_.get());
    mselect_ = std::make_unique<proto::MSelect>(*ctx_, *vchan_);
    xrpctest_ = std::make_unique<proto::XRpcTest>(*ctx_, *mselect_, is_client_);
  }
}

void Host::teardown_stack() {
  // Top-down, reverse of construction: uppers unhook from lowers first.
  if (kind_ == StackKind::kTcpIp) {
    if (tcp_ != nullptr) tcp_->set_conn_map_hook(nullptr);
    tcptest_.reset();
    tcp_.reset();
    ip_.reset();
    vnet_.reset();
  } else {
    xrpctest_.reset();
    mselect_.reset();
    vchan_.reset();
    chan_.reset();
    bid_.reset();
    blast_.reset();
  }
  eth_.reset();
  lance_.reset();
}

void Host::crash() {
  if (crashed_) return;
  crashed_ = true;
  // A capture in progress dies with the host.
  front_.cancel_capture();
  teardown_stack();
  // Kill the stack's timers without firing them; wire deliveries and the
  // chaos script (owner 0) keep going.
  purged_events_ += port_.manager().purge_owner(port_.owner());
  // Every cached classification refers to the dead incarnation's bindings:
  // flush entries (hit/miss/stale counters survive for reporting).
  if (code::FlowCache* cache = front_.flow_cache()) cache->clear();
}

void Host::reboot() {
  if (!crashed_) throw std::logic_error("Host::reboot: host is not crashed");
  ++incarnation_;
  // A fresh boot_id per incarnation: BID detects the reboot on the peer
  // (RPC); TCP converges via RST against the stale peer's segments.
  ++self_.boot_id;
  crashed_ = false;
  build_stack();
  if (reboot_hook_) reboot_hook_();
}

void Host::set_tcp_keepalive(std::uint64_t idle_us, std::uint64_t intvl_us,
                             std::uint32_t probes) {
  tcp_ka_idle_us_ = idle_us;
  tcp_ka_intvl_us_ = intvl_us;
  tcp_ka_probes_ = probes;
  if (tcp_ != nullptr) tcp_->set_keepalive(idle_us, intvl_us, probes);
}

void Host::set_tcp_max_syn_rexmts(std::uint32_t n) {
  tcp_max_syn_rexmts_ = n;
  if (tcp_ != nullptr) tcp_->set_max_syn_rexmts(n);
}

Host::~Host() {
  if (tcp_ != nullptr) tcp_->set_conn_map_hook(nullptr);
}

void Host::enable_flow_cache(code::FlowCacheScheme scheme,
                             std::size_t capacity,
                             code::FlowCacheCosts costs) {
  front_.set_flow_cache(std::make_unique<code::FlowCache>(
      kind_ == StackKind::kTcpIp ? proto::tcpip_flow_key_spec()
                                 : proto::rpc_flow_key_spec(),
      scheme, capacity, costs));
  wire_flow_cache_hook();
}

void Host::install_scaled_classifier(std::size_t decoy_rules,
                                     std::uint64_t seed) {
  front_.set_classifier(
      proto::build_scaled_classifier(rule_set_kind(kind_), decoy_rules, seed));
}

void Host::wire_flow_cache_hook() {
  code::FlowCache* cache = front_.flow_cache();
  if (cache == nullptr || kind_ != StackKind::kTcpIp || tcp_ == nullptr) {
    return;
  }
  // Connection churn: when a connection leaves the demux map its flow
  // key may be rebound later; any cached classification for it is then
  // stale and must fail the inlined composite's guard.  Re-wired to the
  // fresh Tcp after a reboot.
  tcp_->set_conn_map_hook([cache](const proto::TcpConn& c, bool bound) {
    if (bound) return;
    const std::uint32_t vals[] = {c.remote_ip(), c.remote_port(),
                                  c.local_port()};
    cache->invalidate(cache->key_spec().key_of_values(vals));
  });
}

void Host::deliver(std::vector<std::uint8_t> frame) {
  if (crashed_) {
    // The NIC is dead: frames that were already in flight when the host
    // went down arrive at nobody.
    ++frames_to_dead_;
    return;
  }
  front_.receive(frame, *lance_);
}

}  // namespace l96::net
