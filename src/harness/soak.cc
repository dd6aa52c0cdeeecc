#include "harness/soak.h"

#include <cinttypes>
#include <cstdio>

#include "harness/runner.h"
#include "harness/stats.h"
#include "net/chaos.h"

namespace l96::harness {

namespace {

std::uint64_t hash_fault_log(const std::vector<net::FaultRecord>& log) {
  // The true FNV-1a offset basis (the sample digests use a truncated one;
  // see harness/stats.h).
  std::uint64_t h = 14695981039346656037ull;
  for (const net::FaultRecord& r : log) {
    // Every field widened to 8 bytes, as the log hash always mixed them.
    fnv1a_value(h, r.frame_ix);
    fnv1a_value(h, r.at_us);
    fnv1a_value(h, std::uint64_t{r.port});
    fnv1a_value(h, static_cast<std::uint64_t>(r.kind));
    fnv1a_value(h, std::uint64_t{r.arg});
  }
  return h;
}

}  // namespace

std::string SoakReport::summary() const {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "completed=%d rt=%" PRIu64 " us=%" PRIu64
      " mean_us=%.3f integ=%" PRIu64 " failed=%" PRIu64
      " pend=%zu live=%zu busych=%zu reass=%zu conserved=%d"
      " drops=%" PRIu64 " corrupts=%" PRIu64 " dups=%" PRIu64
      " reorders=%" PRIu64 " delays=%" PRIu64 " rexmt_tcp=%" PRIu64
      " badsum_tcp=%" PRIu64 " rexmt_chan=%" PRIu64 " nacks=%" PRIu64
      " badfrm=%" PRIu64 " loghash=%016" PRIx64 " reconn=%" PRIu64
      " bdrop=%" PRIu64 " dead=%" PRIu64 " purged=%zu incarn=%u",
      completed ? 1 : 0, roundtrips, virtual_us, mean_roundtrip_us,
      integrity_failures, failed_calls, pending_events, live_connections,
      busy_channels, reassemblies_pending, conserved ? 1 : 0, faults.drops,
      faults.corrupts, faults.duplicates, faults.reorders, faults.delays,
      tcp_retransmits, tcp_bad_checksums, chan_retransmits, blast_nacks,
      blast_bad_frames, fault_log_hash, reconnects, blackout_drops,
      frames_to_dead, purged_events, server_incarnation);
  return buf;
}

SoakReport run_soak(const SoakSpec& spec) {
  net::World w(spec.kind, spec.client_cfg, spec.server_cfg);
  w.set_fault_plan(spec.plan);

  const bool tcp = spec.kind == net::StackKind::kTcpIp;
  if (tcp) {
    w.client().tcptest()->enable_integrity(spec.msg_bytes);
    w.server().tcptest()->enable_integrity(spec.msg_bytes);
    w.server().tcptest()->set_close_on_peer_close(true);
  } else {
    w.client().xrpctest()->enable_integrity(spec.msg_bytes);
    w.server().xrpctest()->enable_integrity(spec.msg_bytes);
  }

  w.start(spec.roundtrips);
  // Generous virtual-time bound: every roundtrip could in principle eat a
  // full retransmission timeout.
  const std::uint64_t cap = spec.max_virtual_us != 0
                                ? spec.max_virtual_us
                                : spec.roundtrips * 200'000 + 120'000'000;

  SoakReport rep;
  if (spec.chaos) {
    if (tcp) {
      // A crash can leave the client fully ACKed and silently waiting for
      // an echo that died with the server: keepalive probes detect the
      // dead peer (the rebooted incarnation answers a probe with RST) and
      // TcpTest reconnects and resends the current roundtrip.
      w.client().set_tcp_keepalive(/*idle_us=*/200'000,
                                   /*intvl_us=*/100'000, /*probes=*/2);
      w.client().tcptest()->enable_reconnect();
      w.server().set_reboot_hook([&spec, &w] {
        w.server().tcptest()->enable_integrity(spec.msg_bytes);
        w.server().tcptest()->set_close_on_peer_close(true);
        w.server().tcptest()->serve(net::World::kTcpServerPort);
      });
    }
    const std::uint64_t third = spec.roundtrips / 3;
    w.run_until_roundtrips(third, cap);
    net::ChaosTimeline blackout;
    blackout.add(1'000, net::ChaosKind::kLinkDown, net::ChaosTarget::kWire)
        .add(101'000, net::ChaosKind::kLinkUp, net::ChaosTarget::kWire);
    blackout.install(w, w.events().now());
    if (tcp) {
      w.run_until_roundtrips(2 * third, cap);
      net::ChaosTimeline outage;
      outage
          .add(1'000, net::ChaosKind::kHostCrash, net::ChaosTarget::kServer)
          .add(201'000, net::ChaosKind::kHostReboot,
               net::ChaosTarget::kServer);
      outage.install(w, w.events().now());
    }
  }
  rep.completed = w.run_until_roundtrips(spec.roundtrips, cap);
  rep.roundtrips = w.client_roundtrips();
  rep.virtual_us = w.events().now();
  rep.mean_roundtrip_us =
      rep.roundtrips != 0
          ? static_cast<double>(rep.virtual_us) / rep.roundtrips
          : 0.0;

  if (spec.teardown && tcp) {
    if (auto* c = w.client().tcptest()->connection()) c->close();
  }
  // Drain: with the session idle (or closing), every timer must fire or be
  // cancelled; the random fault rates stay active, so teardown itself runs
  // under fire.
  w.events().run_until([&w] { return w.events().pending() == 0; }, 600'000'000);

  // Leak accounting happens BEFORE any destructor runs: destructors cancel
  // timers and would mask a leaked event.
  rep.pending_events = w.events().pending();
  rep.conserved = w.wire().conserved();
  rep.faults = w.fault_counters();
  rep.fault_log_hash = hash_fault_log(w.fault_log());
  rep.blackout_drops = w.wire().blackout_drops();
  rep.frames_to_dead =
      w.client().frames_to_dead() + w.server().frames_to_dead();
  rep.purged_events = w.client().purged_events() + w.server().purged_events();
  rep.server_incarnation = w.server().incarnation();
  if (tcp) rep.reconnects = w.client().tcptest()->reconnects();

  if (tcp) {
    rep.integrity_failures = w.client().tcptest()->integrity_failures() +
                             w.server().tcptest()->integrity_failures();
    for (net::Host* h : {&w.client(), &w.server()}) {
      for (proto::TcpConn* c : h->tcp()->connections()) {
        const proto::TcpState s = c->state();
        if (spec.teardown && s != proto::TcpState::kClosed &&
            s != proto::TcpState::kTimeWait &&
            s != proto::TcpState::kListen) {
          ++rep.live_connections;
        }
        rep.tcp_retransmits += c->retransmits();
      }
      rep.tcp_bad_checksums += h->tcp()->bad_checksum_drops();
      rep.reassemblies_pending += h->ip()->reassemblies_pending();
    }
  } else {
    rep.integrity_failures = w.client().xrpctest()->integrity_failures() +
                             w.server().xrpctest()->integrity_failures();
    for (net::Host* h : {&w.client(), &w.server()}) {
      proto::Chan* ch = h->chan();
      rep.failed_calls += ch->failed_calls();
      rep.chan_retransmits += ch->client_retransmits();
      for (std::size_t i = 0; i < ch->nchans(); ++i) {
        if (ch->busy(static_cast<std::uint16_t>(i))) ++rep.busy_channels;
      }
      rep.blast_nacks += h->blast()->nacks_sent();
      rep.blast_bad_frames +=
          h->blast()->bad_frames() + h->blast()->bad_checksum_drops();
      rep.reassemblies_pending += h->blast()->reassemblies_pending();
    }
  }
  return rep;
}

}  // namespace l96::harness
