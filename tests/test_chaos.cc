// Tests for the failure-domain engine (net/chaos.h): the chaos script
// parser, link blackouts (frame conservation through a dead medium), host
// crash/reboot (timer purge, frame discard, incarnation bump, RST
// convergence), and the TCP survival machinery (bounded SYN retries,
// keepalive reaping of half-open connections).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/chaos.h"
#include "net/world.h"

namespace l96 {
namespace {

using net::ChaosKind;
using net::ChaosTarget;
using net::ChaosTimeline;

TEST(ChaosScript, ParseRoundtripAndWindows) {
  const ChaosTimeline tl = ChaosTimeline::parse(
      "  link_down@2000 link_up@52000   crash@150000:server "
      "reboot@250000:server ");
  EXPECT_EQ(tl.str(),
            "link_down@2000 link_up@52000 crash@150000:server "
            "reboot@250000:server");
  const auto ws = tl.windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].start_us, 2'000u);
  EXPECT_EQ(ws[0].end_us, 52'000u);
  EXPECT_FALSE(ws[0].crash);
  EXPECT_EQ(ws[1].start_us, 150'000u);
  EXPECT_EQ(ws[1].end_us, 250'000u);
  EXPECT_TRUE(ws[1].crash);
  EXPECT_EQ(ws[1].target, ChaosTarget::kServer);
}

TEST(ChaosScript, RejectsMalformedScripts) {
  // Open-ended disruptions (the script must restore the world) ...
  EXPECT_THROW(ChaosTimeline::parse("link_down@1000"), std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("crash@1000:server"),
               std::invalid_argument);
  // ... state-machine violations ...
  EXPECT_THROW(ChaosTimeline::parse("link_up@1000"), std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("link_down@1 link_down@2 link_up@3"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("reboot@1000:server"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("link_down@5000 link_up@1000"),
               std::invalid_argument);
  // ... and syntax errors.
  EXPECT_THROW(ChaosTimeline::parse("crash@1000 reboot@2000"),
               std::invalid_argument);  // host verb without target
  EXPECT_THROW(ChaosTimeline::parse("link_down@2000:server link_up@3000"),
               std::invalid_argument);  // link verb with target
  EXPECT_THROW(ChaosTimeline::parse("crash@abc:server reboot@2000:server"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("explode@1000"), std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("crash@1:router reboot@2:router"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("link_down"), std::invalid_argument);
  // Times and backend indices are decimal digits only: no sign.
  EXPECT_THROW(ChaosTimeline::parse("link_down@2000 link_up@-5"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("link_down@+2000 link_up@3000"),
               std::invalid_argument);
  EXPECT_THROW(
      ChaosTimeline::parse("drain@1000:backend+1 undrain@2000:backend+1"),
      std::invalid_argument);
}

TEST(ChaosScript, ParsesBackendTargetsAndDrains) {
  const ChaosTimeline tl = ChaosTimeline::parse(
      "drain@1000:backend2 link_down@2000:backend0 link_up@3000:backend0 "
      "crash@4000:backend1 reboot@5000:backend1 undrain@6000:backend2");
  EXPECT_EQ(tl.str(),
            "drain@1000:backend2 link_down@2000:backend0 "
            "link_up@3000:backend0 crash@4000:backend1 reboot@5000:backend1 "
            "undrain@6000:backend2");
  const auto ws = tl.windows();
  ASSERT_EQ(ws.size(), 3u);
  // Drain window: administrative, not a crash.
  EXPECT_EQ(ws[0].start_us, 1'000u);
  EXPECT_EQ(ws[0].end_us, 6'000u);
  EXPECT_TRUE(ws[0].drain);
  EXPECT_FALSE(ws[0].crash);
  EXPECT_EQ(ws[0].index, 2u);
  // Backend-link blackout.
  EXPECT_EQ(ws[1].start_us, 2'000u);
  EXPECT_EQ(ws[1].target, ChaosTarget::kBackendLink);
  EXPECT_EQ(ws[1].index, 0u);
  EXPECT_FALSE(ws[1].crash);
  // Backend host crash.
  EXPECT_EQ(ws[2].start_us, 4'000u);
  EXPECT_TRUE(ws[2].crash);
  EXPECT_EQ(ws[2].target, ChaosTarget::kBackend);
  EXPECT_EQ(ws[2].index, 1u);
}

// The hardening contract: every parse rejection names the offending
// token, so a bad script in a CLI flag is diagnosable from the message
// alone.
void expect_parse_error_naming(const std::string& script,
                               const std::string& token) {
  try {
    ChaosTimeline::parse(script);
    FAIL() << "parse accepted: " << script;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "message \"" << e.what() << "\" does not name \"" << token << "\"";
  }
}

TEST(ChaosScript, RejectionsNameTheOffendingToken) {
  // Unknown event kinds.
  expect_parse_error_naming("explode@1000", "explode");
  expect_parse_error_naming("link_down@1000 melt@2000 link_up@3000", "melt");
  // Non-monotone timestamps: the token that steps backwards is named.
  expect_parse_error_naming("link_down@5000 link_up@1000", "link_up@1000");
  expect_parse_error_naming(
      "drain@3000:backend0 crash@2000:server reboot@4000:server "
      "undrain@5000:backend0",
      "crash@2000:server");
  // Unknown hosts and malformed backend indices.
  expect_parse_error_naming("crash@1:router reboot@2:router", "router");
  expect_parse_error_naming("crash@1:backendX reboot@2:backendX",
                            "crash@1:backendX");
  expect_parse_error_naming("crash@1:backend reboot@2:backend",
                            "backend");
  // Bad times name both the time and the token.
  expect_parse_error_naming("crash@abc:server reboot@2000:server",
                            "crash@abc:server");
}

TEST(ChaosScript, RejectsMalformedBackendScripts) {
  // Drain verbs require a :backendN target...
  EXPECT_THROW(ChaosTimeline::parse("drain@1000:server undrain@2000:server"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("drain@1000 undrain@2000"),
               std::invalid_argument);
  // ... and pair up per index, like crash/reboot and link_down/link_up.
  EXPECT_THROW(ChaosTimeline::parse("drain@1000:backend0"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("undrain@1000:backend0"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse(
                   "drain@1000:backend0 undrain@2000:backend1 "
                   "drain@3000:backend1 undrain@4000:backend0"),
               std::invalid_argument);
  EXPECT_THROW(ChaosTimeline::parse("link_down@1000:backend0"),
               std::invalid_argument);
  EXPECT_THROW(
      ChaosTimeline::parse("crash@1000:backend0 reboot@2000:backend1"),
      std::invalid_argument);
  // Link verbs never take a plain host.
  EXPECT_THROW(ChaosTimeline::parse("link_down@1000:client link_up@2000"),
               std::invalid_argument);
}

TEST(ChaosScript, InstallRejectsTargetsAbsentFromThisWorld) {
  // A two-host world has no backends and no LB pool: installing a script
  // that names them must fail at install time, naming the target.
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  const ChaosTimeline crash_tl =
      ChaosTimeline::parse("crash@1000:backend0 reboot@2000:backend0");
  try {
    crash_tl.install(w, 0);
    FAIL() << "install accepted a backend target in a two-host world";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("backend0"), std::string::npos);
  }
  const ChaosTimeline drain_tl =
      ChaosTimeline::parse("drain@1000:backend0 undrain@2000:backend0");
  EXPECT_THROW(drain_tl.install(w, 0), std::invalid_argument);
  EXPECT_THROW(
      ChaosTimeline::parse("link_down@1000:backend1 link_up@2000:backend1")
          .install(w, 0),
      std::invalid_argument);
  // Nothing was scheduled by the failed installs.
  EXPECT_EQ(w.events().pending(), 0u);
}

TEST(Blackout, SwallowsFramesAndStaysConserved) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.start(50);
  ASSERT_TRUE(w.run_until_roundtrips(5));

  const ChaosTimeline tl = ChaosTimeline::parse("link_down@1000 link_up@51000");
  tl.install(w, w.events().now());
  w.events().advance_by(2'000);
  EXPECT_FALSE(w.wire().is_link_up());

  // TCP rides out the outage on its retransmission timers and the run
  // completes once the link returns.
  ASSERT_TRUE(w.run_until_roundtrips(50, 120'000'000));
  EXPECT_TRUE(w.wire().is_link_up());
  EXPECT_EQ(w.wire().blackouts(), 1u);
  EXPECT_GT(w.wire().blackout_drops(), 0u);
  EXPECT_TRUE(w.wire().conserved());
  std::uint64_t rexmts = 0;
  for (proto::TcpConn* c : w.client().tcp()->connections()) {
    rexmts += c->retransmits();
  }
  EXPECT_GT(rexmts, 0u);  // the outage was ridden out on the rexmt timer
}

TEST(Chaos, CrashPurgesTimersAndRebootNeverRunsThem) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.start(3);
  ASSERT_TRUE(w.run_until_roundtrips(3));

  bool fired = false;
  w.server().event_port().schedule_in(1'000, [&] { fired = true; });
  const std::size_t purged_before = w.server().purged_events();
  w.server().crash();
  EXPECT_TRUE(w.server().crashed());
  EXPECT_GE(w.server().purged_events(), purged_before + 1);
  EXPECT_EQ(w.events().pending_for(w.server().event_port().owner()), 0u);

  w.server().reboot();
  EXPECT_FALSE(w.server().crashed());
  EXPECT_EQ(w.server().incarnation(), 2u);
  w.events().advance_by(10'000);
  EXPECT_FALSE(fired);  // the pre-crash timer died with the incarnation
}

TEST(Chaos, RebootRequiresCrash) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  EXPECT_THROW(w.server().reboot(), std::logic_error);
}

TEST(Chaos, CrashedHostDiscardsInboundFrames) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.start(5);
  ASSERT_TRUE(w.run_until_roundtrips(5));
  proto::TcpConn* c = w.client().tcptest()->connection();
  ASSERT_NE(c, nullptr);

  w.server().crash();
  c->send(std::vector<std::uint8_t>(8, 0xAB));
  w.events().advance_by(1'000);
  EXPECT_GE(w.server().frames_to_dead(), 1u);
  EXPECT_TRUE(w.wire().conserved());  // discarded, not lost in accounting
}

TEST(Chaos, CrashRebootRstConvergence) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.start(5);
  ASSERT_TRUE(w.run_until_roundtrips(5));
  ASSERT_TRUE(w.events().run_until([&] { return w.events().pending() == 0; },
                                   60'000'000));
  proto::TcpConn* c = w.client().tcptest()->connection();
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->state(), proto::TcpState::kEstablished);

  w.server().crash();
  w.server().reboot();
  EXPECT_EQ(w.server().incarnation(), 2u);

  // The client's next segment lands on a stack that never heard of the
  // connection: the new incarnation answers RST and the client converges.
  c->send(std::vector<std::uint8_t>(4, 0xCD));
  ASSERT_TRUE(w.events().run_until(
      [&] { return c->state() == proto::TcpState::kClosed; }, 60'000'000));
  EXPECT_EQ(w.server().tcp()->rst_sent(), 1u);
  EXPECT_EQ(w.client().tcptest()->connection(), nullptr);  // upcall detached
  ASSERT_TRUE(w.events().run_until([&] { return w.events().pending() == 0; },
                                   60'000'000));
  EXPECT_TRUE(w.wire().conserved());
}

TEST(Survival, SynRetryExhaustionSurfacesFailureWithoutLeaks) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.client().set_tcp_max_syn_rexmts(3);
  w.wire().link_down();
  w.start(5);  // the SYN (and every retry) goes into the void

  ASSERT_TRUE(w.events().run_until([&] { return w.events().pending() == 0; },
                                   600'000'000));
  EXPECT_EQ(w.client().tcp()->connect_failures(), 1u);
  EXPECT_EQ(w.wire().blackout_drops(), 4u);  // SYN + 3 retries
  proto::TcpConn* c = w.client().tcptest()->connection();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), proto::TcpState::kClosed);
  EXPECT_EQ(w.events().pending(), 0u);  // give-up cancelled every timer
  w.wire().link_up();
  EXPECT_TRUE(w.wire().conserved());
}

TEST(Survival, KeepaliveReapsHalfOpenAfterPeerCrash) {
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.client().set_tcp_keepalive(/*idle_us=*/100'000, /*intvl_us=*/50'000,
                               /*probes=*/2);
  w.start(5);
  ASSERT_TRUE(w.run_until_roundtrips(5));
  proto::TcpConn* c = w.client().tcptest()->connection();
  ASSERT_NE(c, nullptr);

  w.server().crash();  // never reboots: nobody will ever answer a probe
  ASSERT_TRUE(w.events().run_until([&] { return w.events().pending() == 0; },
                                   600'000'000));
  EXPECT_EQ(w.client().tcp()->keepalive_probes_sent(), 2u);
  EXPECT_EQ(w.client().tcp()->keepalive_reaps(), 1u);
  EXPECT_EQ(c->state(), proto::TcpState::kClosed);
  EXPECT_GE(w.server().frames_to_dead(), 2u);  // probes landed on a corpse
  EXPECT_EQ(w.events().pending(), 0u);
  EXPECT_TRUE(w.wire().conserved());
}

TEST(Survival, KeepaliveIsQuietOnALiveConnection) {
  // An active ping-pong keeps resetting the idle clock: no probes, no
  // reaps, and the run is undisturbed.
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.client().set_tcp_keepalive(100'000, 50'000, 2);
  w.start(50);
  ASSERT_TRUE(w.run_until_roundtrips(50));
  EXPECT_EQ(w.client().tcp()->keepalive_probes_sent(), 0u);
  EXPECT_EQ(w.client().tcp()->keepalive_reaps(), 0u);
}

TEST(Survival, ReconnectResumesAfterCrashReboot) {
  // TcpTest's reconnect option: the client notices the dead peer via
  // keepalive, reconnects to the rebooted server, and finishes the run.
  net::World w(net::StackKind::kTcpIp, code::StackConfig::Std(),
               code::StackConfig::Std());
  w.client().set_tcp_keepalive(100'000, 50'000, 2);
  w.client().tcptest()->enable_reconnect();
  w.server().set_reboot_hook(
      [&w] { w.server().tcptest()->serve(net::World::kTcpServerPort); });
  w.start(40);
  ASSERT_TRUE(w.run_until_roundtrips(10));

  w.server().crash();
  w.server().reboot();
  ASSERT_TRUE(w.run_until_roundtrips(40, 120'000'000));
  EXPECT_GE(w.client().tcptest()->reconnects(), 1u);
  EXPECT_EQ(w.server().incarnation(), 2u);
  EXPECT_TRUE(w.wire().conserved());
}

}  // namespace
}  // namespace l96
