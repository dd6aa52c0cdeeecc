#include "harness/driver.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "protocols/tcp.h"

namespace l96::harness::driver {

namespace {

using fleet_detail::kFleetClientPortBase;
using fleet_detail::kFleetRpcProcBase;
using fleet_detail::kFleetServerPort;
using fleet_detail::CoreStep;

/// Connections are opened in waves this big: a wave's handshakes complete
/// before the next wave's SYNs are offered, so a large fleet never queues
/// thousands of SYNs behind the 10 Mb/s wire into an RTO storm.
constexpr std::size_t kEstablishWave = 256;
/// A world that makes no progress for this long has stalled.
constexpr std::uint64_t kStallUs = 60'000'000;
/// Quiet time that lets a handshake's trailing ACK land outside any burst.
constexpr std::uint64_t kDrainUs = 500'000;

/// Server side: counts completed deliveries on every host it listens on,
/// timestamped on paced rows.  RPC rows count completed calls instead.
struct Sink final : proto::TcpUpper {
  void tcp_receive(proto::TcpConn&, xk::Message&) override {
    ++delivered;
    if (times != nullptr) times->push_back(events->now());
  }
  std::uint64_t delivered = 0;
  const xk::EventManager* events = nullptr;
  std::vector<std::uint64_t>* times = nullptr;
};

/// The driver is the client side's upper layer: it counts establishments,
/// so a fleet of any size waits for its handshakes with an O(1) predicate.
/// The count crosses each threshold at exactly the event a scan of every
/// connection's state would, so the world's timeline is the scan's.
class Driver final : public proto::TcpUpper {
 public:
  Driver(const Topology& topo, const Plan& plan)
      : t_(topo),
        p_(plan),
        ev_(*topo.events),
        tcp_(topo.kind == net::StackKind::kTcpIp),
        paced_(!plan.chaos.empty()),
        pricer_(plan.pricer),
        owned_(plan.work->flows) {
    sink_.events = &ev_;
    if (paced_) sink_.times = &run_.delivery_times;
    payload_.fill(0x5A);
  }
  // Hooks and connections hold `this`.
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Run run();
  void tcp_established(proto::TcpConn&) override { ++established_; }
  void tcp_receive(proto::TcpConn&, xk::Message&) override {}

 private:
  template <typename Pred>
  bool run_until(Pred pred, std::uint64_t max_us) {
    const std::uint64_t deadline = ev_.now() + max_us;
    while (!pred()) {
      if (ev_.pending() == 0) return pred();
      if (ev_.now() >= deadline) return false;
      ev_.advance_to_next();
    }
    return true;
  }
  void idle(std::uint64_t us) {
    run_until([] { return false; }, us);
  }
  [[noreturn]] void fail(const char* what, std::uint64_t packet) const {
    throw std::runtime_error(p_.row + ": " + what + " at scheduled packet " +
                             std::to_string(packet));
  }
  /// Run until `pred` holds; a world that stalls first fails the row.
  template <typename Pred>
  void wait(Pred pred, const char* what, std::uint64_t packet) {
    if (!run_until(pred, kStallUs)) fail(what, packet);
  }

  /// Wire identity of local flow k: global index unless ports are local.
  std::uint16_t id_of(std::size_t k, std::uint16_t base) const {
    return static_cast<std::uint16_t>(base + (p_.local_ports ? k : owned_[k]));
  }
  std::uint16_t port_of(std::size_t k) const {
    return id_of(k, kFleetClientPortBase);
  }
  void connect(std::size_t k) {
    conns_[k] = t_.client->tcp()->connect(t_.dst_ip, port_of(k),
                                          kFleetServerPort, this);
  }
  bool alive(std::size_t k) const {
    return !tcp_ || (conns_[k] != nullptr &&
                     conns_[k]->state() == proto::TcpState::kEstablished);
  }
  /// Fold a client connection's counters into the run, then destroy it.
  void retire(std::size_t k) {
    run_.client_retransmits += conns_[k]->retransmits();
    run_.client_syn_retransmits += conns_[k]->syn_retransmits();
    t_.client->tcp()->destroy(conns_[k]);
    conns_[k] = nullptr;
  }
  /// Tear down the server side of local flow k on every live server.
  void destroy_remnant(std::size_t k) {
    for (net::Host* h : t_.servers) {
      if (h->crashed()) continue;
      for (proto::TcpConn* c : h->tcp()->connections()) {
        if (c->remote_port() == port_of(k) &&
            c->local_port() == kFleetServerPort) {
          h->tcp()->destroy(c);
          break;
        }
      }
    }
  }

  void open();
  void ensure_alive(std::size_t k);
  void send(std::size_t k);
  void churn();
  void resolve_attribution();

  const Topology& t_;
  const Plan& p_;
  xk::EventManager& ev_;
  const bool tcp_;
  const bool paced_;
  Run run_;
  Sink sink_;
  std::uint64_t established_ = 0;
  BurstPricer pricer_;
  const std::vector<std::size_t>& owned_;  ///< local flow -> global flow
  std::vector<proto::TcpConn*> conns_;
  std::array<std::uint8_t, 32> payload_{};
  std::uint64_t sent_ = 0;  ///< this core's scheduled sends
  std::uint64_t current_burst_ = 0;
  // One-frame-late attribution state.
  std::uint64_t attributed_ = 0;
  bool frame_pending_ = false;
  bool frame_was_burst_ = false;
};

void Driver::open() {
  if (!tcp_) {
    net::Host* server = t_.servers.front();
    for (std::size_t k = 0; k < owned_.size(); ++k) {
      server->mselect()->register_service(
          id_of(k, kFleetRpcProcBase), [server](xk::Message& req) {
            xk::Message reply(server->arena(), 0, 1);
            reply.data()[0] = static_cast<std::uint8_t>(req.length() & 0xFF);
            return reply;
          });
    }
    return;
  }
  for (net::Host* h : t_.servers) {
    h->tcp()->listen(kFleetServerPort, &sink_);
    // A rebooted server must serve again: the fresh stack re-listens (the
    // deliver hook and flow cache live on the Host and survive the crash).
    h->set_reboot_hook(
        [h, this] { h->tcp()->listen(kFleetServerPort, &sink_); });
  }
  conns_.assign(owned_.size(), nullptr);
  for (std::size_t wave = 0; wave < owned_.size(); wave += kEstablishWave) {
    const std::size_t wave_end =
        std::min(owned_.size(), wave + kEstablishWave);
    for (std::size_t k = wave; k < wave_end; ++k) connect(k);
    wait([&] { return established_ >= wave_end; },
         "connection fleet did not establish", 0);
  }
  // The last connection is established the instant the client processes
  // its SYN-ACK — its handshake ACK is still in flight.  Let the world go
  // quiet so those deliveries don't leak into the measured schedule.
  idle(kDrainUs);
}

void Driver::ensure_alive(std::size_t k) {
  // Re-establish a connection the failure script killed (RST from a new
  // incarnation, keepalive reap, SYN-retry exhaustion on an earlier
  // repair) outside the burst bracket, so the reconnect storm prices as
  // handshake traffic.
  const std::uint64_t repair_begin = ev_.now();
  pricer_.end_burst();
  for (std::size_t attempts = 1; !alive(k); ++attempts) {
    if (attempts > 64) fail("connection could not be re-established", sent_);
    if (conns_[k] != nullptr) retire(k);
    // Tear down any remnant of the old flow so the reconnect's SYN reaches
    // a listener instead of a half-dead connection.
    destroy_remnant(k);
    connect(k);
    ++run_.reconnects;
    proto::TcpConn* fresh = conns_[k];
    wait(
        [fresh] {
          return fresh->state() == proto::TcpState::kEstablished ||
                 fresh->state() == proto::TcpState::kClosed;
        },
        "reconnect neither completed nor failed", sent_);
  }
  idle(kDrainUs);
  run_.disrupted.push_back({repair_begin, ev_.now()});
  pricer_.begin_burst();
}

void Driver::send(std::size_t k) {
  const std::uint64_t attempt_us = ev_.now();
  proto::TcpConn* sender = nullptr;
  if (tcp_) {
    sender = conns_[k];
    sender->send(payload_);
  } else {
    xk::Message req(t_.client->arena(), 128, 16);
    t_.client->mselect()->call(id_of(k, kFleetRpcProcBase), req,
                               [this](xk::Message&) { ++sink_.delivered; });
  }
  ++sent_;
  const std::uint64_t goal = sent_ - run_.lost_packets;
  wait(
      [&] {
        return sink_.delivered >= goal ||
               (sender != nullptr &&
                sender->state() == proto::TcpState::kClosed);
      },
      "scheduled packet was not delivered", sent_ - 1);
  if (sink_.delivered < goal) {
    // The connection died with the byte undelivered; it is gone with the
    // old sndbuf.  The whole failed attempt — the segment that found the
    // dead peer, and whatever answered it — is disruption work.
    ++run_.lost_packets;
    run_.disrupted.push_back({attempt_us, ev_.now()});
  }
}

void Driver::churn() {
  // Close and reopen the hottest flow (global flow 0 is local index 0)
  // once it is quiet: the server-side unbind marks its cache entry stale,
  // so the reopened flow's first frame is a stale hit through the slow
  // path.  A flow the script already killed is left to the repair path.
  if (!tcp_ || !alive(0)) return;
  wait([&] { return conns_[0]->bytes_unacked() == 0; },
       "churn victim did not quiesce", sent_ - 1);
  destroy_remnant(0);
  retire(0);
  connect(0);
  wait([&] { return conns_[0]->state() == proto::TcpState::kEstablished; },
       "churned connection did not re-establish", sent_ - 1);
  // Drain the handshake ACK now, outside any burst, so it is priced as
  // handshake traffic at position 0 and cannot advance the next burst's.
  idle(kDrainUs);
  ++run_.result.churns;
}

void Driver::resolve_attribution() {
  if (!frame_pending_) return;
  frame_pending_ = false;
  if (frame_was_burst_ && sink_.delivered > attributed_) {
    ++run_.result.scheduled_sampled;
  } else {
    ++run_.result.handshake_sampled;
  }
  attributed_ = sink_.delivered;
}

Run Driver::run() {
  FleetResult& r = run_.result;
  open();

  run_.base_us = ev_.now();
  if (paced_) t_.install(p_.chaos, run_.base_us);
  std::uint64_t last_end_us = 0;  // the script's last window closes here
  for (const net::ChaosWindow& w : p_.chaos.windows()) {
    last_end_us = std::max(last_end_us, w.end_us);
  }
  const std::uint64_t pace_span_us = last_end_us + last_end_us / 4;

  run_.samples.reserve(p_.work->packets + 16);
  t_.price_from_here([this](const code::FlowLookupResult& lr, bool slow) {
    resolve_attribution();
    run_.samples.push_back(
        {current_burst_, pricer_.in_burst ? 0u : 1u, pricer_.price(lr, slow)});
    if (paced_) run_.sample_times.push_back(ev_.now());
    frame_pending_ = true;
    frame_was_burst_ = pricer_.in_burst;
    if (slow) ++run_.result.slow_packets;
  });

  for (const CoreStep& step : p_.work->steps) {
    current_burst_ = step.burst;
    if (step.len > 0) {
      if (pace_span_us != 0) {
        // advance_to, not run_until: the send must happen at the due tick
        // exactly.  run_until only observes time when an event fires, and
        // in an otherwise idle world the next event can be the far edge of
        // a window — overshooting it would skip the disruption entirely.
        const std::uint64_t due =
            run_.base_us + (step.scheduled * pace_span_us) / p_.packets;
        if (ev_.now() < due) ev_.advance_to(due);
      }
      // The burst is ours, whole: a flow lives on exactly one core.
      const std::size_t k = step.flow;
      ++r.bursts;
      pricer_.begin_burst();
      for (std::uint64_t j = 0; j < step.len; ++j) {
        if (!alive(k)) ensure_alive(k);
        send(k);
      }
      pricer_.end_burst();
      resolve_attribution();  // settle the burst's last frame

      // Conservation: every scheduled packet was priced while its burst
      // was open, or lost with its connection; anything short of that was
      // torn down in flight and must be accounted, not ignored.
      const std::uint64_t priced =
          r.scheduled_sampled + r.dropped_in_churn + run_.lost_packets;
      if (priced < sent_) r.dropped_in_churn += sent_ - priced;
    }
    if (step.churn_after) churn();
  }

  if (paced_) {
    // Let the script finish (a window may extend past the last scheduled
    // packet) so every window gets a verdict.
    const std::uint64_t horizon =
        run_.base_us + last_end_us + p_.horizon_slack_us;
    if (ev_.now() < horizon) idle(horizon - ev_.now());
  }
  resolve_attribution();
  for (proto::TcpConn* c : conns_) {
    if (c == nullptr) continue;
    run_.client_retransmits += c->retransmits();
    run_.client_syn_retransmits += c->syn_retransmits();
  }
  std::vector<double> flat;
  flat.reserve(run_.samples.size());
  for (const TaggedSample& s : run_.samples) flat.push_back(s.us);
  r.packets_sampled = flat.size();
  r.sample_digest = sample_digest(flat);
  r.latency = percentiles(std::move(flat));
  r.sim_us = static_cast<double>(ev_.now());
  return std::move(run_);
}

}  // namespace

double BurstPricer::price(const code::FlowLookupResult& lr, bool slow) {
  if (flat != nullptr) {
    return flat->controller_us + lr.cost_us +
           (slow ? flat->slow_us : flat->fast_us) + flat->controller_us;
  }
  const std::size_t at = in_burst ? pos : 0;
  double us = burst->controller_us + lr.cost_us;
  if (slow) {
    us += burst->slow_at(at);
    pos = 0;
  } else {
    us += burst->fast_at(at);
    if (in_burst) ++pos;
  }
  return us;
}

Topology pair(net::World& world) {
  Topology t;
  t.kind = world.kind();
  t.events = &world.events();
  t.client = &world.client();
  t.servers = {&world.server()};
  t.dst_ip = world.server().address().ip;
  t.price_from_here = [&world](PriceHook h) {
    world.server().flow_cache()->reset_stats();
    world.server().set_deliver_hook(std::move(h));
  };
  t.install = [&world](const net::ChaosTimeline& c, std::uint64_t base) {
    c.install(world, base);
  };
  return t;
}

Topology tier(net::LbWorld& world) {
  Topology t;
  t.events = &world.events();
  t.client = &world.client();
  for (std::size_t i = 0; i < world.backend_count(); ++i) {
    t.servers.push_back(&world.backend(i));
  }
  t.dst_ip = world.vip();
  t.price_from_here = [&world](PriceHook h) {
    world.lb().conn_track().reset_stats();
    world.lb().set_forward_hook(
        [h = std::move(h)](const code::FlowLookupResult& lr, bool slow,
                           int) { h(lr, slow); });
  };
  t.install = [&world](const net::ChaosTimeline& c, std::uint64_t base) {
    c.install(world, base);
  };
  return t;
}

std::uint64_t Run::samples_between(std::uint64_t begin,
                                   std::uint64_t end) const {
  return static_cast<std::uint64_t>(
      std::count_if(sample_times.begin(), sample_times.end(),
                    [&](std::uint64_t t) { return t >= begin && t < end; }));
}

Run drive(const Topology& topo, const Plan& plan) {
  return Driver(topo, plan).run();
}

LatencyPercentiles Run::phase_latency(bool disrupted_phase,
                                     std::uint64_t& n) const {
  std::vector<double> picked;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool in = i < sample_times.size() &&
                    std::any_of(disrupted.begin(), disrupted.end(),
                                [t = sample_times[i]](const Phase& ph) {
                                  return t >= ph.begin && t <= ph.end;
                                });
    if (in == disrupted_phase) picked.push_back(samples[i].us);
  }
  n = picked.size();
  return percentiles(std::move(picked));
}

template <typename Table>
void check_costs(const char* caller, const FleetSpec& row,
                  const Table& costs) {
  const auto reject = [caller](const std::string& why) {
    throw std::invalid_argument(std::string(caller) + ": " + why);
  };
  if (!row.config.path_inlining) {
    reject("the config must have path_inlining enabled (the slow-path "
           "fallback is what the row prices)");
  }
  if (row.connections == 0 || row.packets == 0) {
    reject("connections and packets must be > 0");
  }
  if (row.params.classifier_overhead_us != 0.0) {
    // Exactly one classification cost model per measurement: driven rows
    // price every lookup through FlowCacheCosts; the flat analytic knob
    // belongs to the single-roundtrip te formulas (combine_sides), and
    // accepting both would charge classification twice per packet.
    reject("classifier_overhead_us must be 0 for fleet rows — "
           "classification is priced via FlowCacheCosts, not the flat "
           "analytic knob");
  }
  if constexpr (std::is_same_v<Table, BurstCostTable>) {
    if (costs.fast_us.empty() ||
        costs.slow_us.size() != costs.fast_us.size()) {
      reject("malformed cost table (needs >= 1 position and equal "
             "fast/slow sizes)");
    }
    if (costs.kind != row.kind) reject("cost table measured for another stack");
  }
  if (costs.config_name != row.config.name) {
    reject("cost table measured for " + costs.config_name +
           " does not match row config " + row.config.name);
  }
  if (costs.params_key != machine_params_key(row.params)) {
    reject("cost table was measured under different MachineParams than row '" +
           (row.label.empty() ? std::string("unlabeled") : row.label) +
           "' — measure the costs once per distinct params (cache-size "
           "sweeps must not reuse the defaults' costs)");
  }
}

template void check_costs(const char*, const FleetSpec&,
                           const BurstCostTable&);
template void check_costs(const char*, const FleetSpec&, const LbCostTable&);

}  // namespace l96::harness::driver
