#include "harness/driver.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "net/lb.h"
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
  /// Fire events for `us` (> 0) of virtual time, or until none are left.
  void idle(std::uint64_t us) {
    ev_.run_until([] { return false; }, us);
  }
  [[noreturn]] void fail(const char* what, std::uint64_t packet) const {
    throw std::runtime_error(p_.row + ": " + what + " at scheduled packet " +
                             std::to_string(packet));
  }
  /// Run until `pred` holds; a world that stalls first fails the row.
  template <typename Pred>
  void wait(Pred pred, const char* what, std::uint64_t packet) {
    if (!ev_.run_until(pred, kStallUs)) fail(what, packet);
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
    fold(*conns_[k]);
    t_.client->tcp()->destroy(conns_[k]);
    conns_[k] = nullptr;
  }
  /// Add a client connection's retransmit counters to the fallout.
  void fold(const proto::TcpConn& c) {
    run_.fallout.client_retransmits += c.retransmits();
    run_.fallout.client_syn_retransmits += c.syn_retransmits();
  }
  /// Tear down the server side of local flow k on every live server: one
  /// keyed demux lookup each (the LB rewrites only the MAC, so a backend
  /// sees the client's own address).
  void destroy_remnant(std::size_t k) {
    const std::uint32_t client_ip = t_.client->address().ip;
    for (net::Host* h : t_.servers) {
      if (h->crashed()) continue;
      proto::Tcp& tcp = *h->tcp();
      if (proto::TcpConn* c = tcp.find_connection(client_ip, kFleetServerPort,
                                                  port_of(k))) {
        tcp.destroy(c);
      }
    }
  }
  /// Read the rest of the fallout off the client, servers and wires.
  void harvest_fallout();

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
    // front end and its flow cache live on the Host and survive the crash).
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
  // The handshakes warmed the lookup counters: restart them here.
  t_.front->flow_cache()->reset_stats();
  t_.front->set_hook([this](const code::FlowLookupResult& lr, bool slow) {
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
  t_.front->set_hook(nullptr);  // it holds `this`
  for (proto::TcpConn* c : conns_) {
    if (c != nullptr) fold(*c);
  }
  harvest_fallout();
  std::vector<double> flat;
  flat.reserve(run_.samples.size());
  for (const TaggedSample& s : run_.samples) flat.push_back(s.us);
  r.packets_sampled = flat.size();
  r.sample_digest = sample_digest(flat);
  r.latency = percentiles(std::move(flat));
  r.sim_us = static_cast<double>(ev_.now());
  return std::move(run_);
}

void Driver::harvest_fallout() {
  Fallout& f = run_.fallout;
  if (const proto::Tcp* tcp = t_.client->tcp()) {
    f.connect_failures = tcp->connect_failures();
    f.keepalive_probes_sent = tcp->keepalive_probes_sent();
    f.keepalive_reaps = tcp->keepalive_reaps();
  }
  f.frames_to_dead = t_.client->frames_to_dead();
  f.purged_events = t_.client->purged_events();
  for (net::Host* h : t_.servers) {
    if (const proto::Tcp* tcp = h->tcp()) f.rst_sent += tcp->rst_sent();
    f.frames_to_dead += h->frames_to_dead();
    f.purged_events += h->purged_events();
    f.incarnations += h->incarnation();
  }
  for (const net::Wire* w : t_.wires) f.blackout_drops += w->blackout_drops();
}

}  // namespace

double BurstPricer::price(const code::FlowLookupResult& lr, bool slow) {
  const std::size_t at = in_burst ? pos : 0;
  double us = costs->controller_us + lr.cost_us;
  if (slow) {
    us += costs->slow_at(at);
    pos = 0;
  } else {
    us += costs->fast_at(at);
    if (in_burst) ++pos;
  }
  // The LB tier forwards: its frame crosses a second wire to the backend.
  if (costs->kind == net::StackKind::kLb) us += costs->controller_us;
  return us;
}

Topology pair(net::World& world) {
  Topology t;
  t.kind = world.kind();
  t.events = &world.events();
  t.client = &world.client();
  t.servers = {&world.server()};
  t.wires = {&world.wire()};
  t.dst_ip = world.server().address().ip;
  t.front = &world.server().front_end();
  t.install = [&world](const net::ChaosTimeline& c, std::uint64_t base) {
    c.install(world, base);
  };
  return t;
}

Topology tier(net::LbWorld& world) {
  Topology t;
  t.events = &world.events();
  t.client = &world.client();
  t.wires = {&world.client_wire()};
  for (std::size_t i = 0; i < world.backend_count(); ++i) {
    t.servers.push_back(&world.backend(i));
    t.wires.push_back(&world.backend_wire(i));
  }
  t.dst_ip = world.vip();
  t.front = &world.lb().front_end();
  t.install = [&world](const net::ChaosTimeline& c, std::uint64_t base) {
    c.install(world, base);
  };
  return t;
}

WindowSpan Run::span(const net::ChaosWindow& w) const {
  WindowSpan s;
  s.window = w;
  s.start_abs_us = base_us + w.start_us;
  s.end_abs_us = base_us + w.end_us;
  s.samples_in_window = static_cast<std::uint64_t>(std::count_if(
      sample_times.begin(), sample_times.end(), [&](std::uint64_t t) {
        return t >= s.start_abs_us && t < s.end_abs_us;
      }));
  return s;
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

void check_costs(const char* caller, const FleetSpec& row,
                 const BurstCostTable& costs) {
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
  if (costs.fast_us.empty() || costs.slow_us.size() != costs.fast_us.size()) {
    reject("malformed cost table (needs >= 1 position and equal "
           "fast/slow sizes)");
  }
  if (costs.kind != row.kind) reject("cost table measured for another stack");
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

}  // namespace l96::harness::driver
