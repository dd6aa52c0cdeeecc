// Tests for the SweepRunner subsystem: the trace-capture cache must capture
// each functional configuration exactly once, the worker pool must produce
// byte-identical numbers to the serial run_config path in deterministic
// order, and the JSON metrics emission must be well-formed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/sweep.h"

namespace l96 {
namespace {

using code::StackConfig;
using harness::capture_key;
using harness::SweepJob;
using harness::SweepRunner;

std::vector<SweepJob> table8_jobs() {
  std::vector<SweepJob> jobs;
  for (const auto& cfg : harness::paper_configs()) {
    SweepJob j;
    j.kind = net::StackKind::kTcpIp;
    j.client = cfg;
    j.server = cfg;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(SweepRunner, MatchesSerialPathExactly) {
  // The acceptance bar: a Table-8-style sweep through the runner produces
  // byte-identical cycle/CPI/mCPI numbers to the serial run_config path.
  const auto jobs = table8_jobs();
  SweepRunner runner(2);
  const auto outcomes = runner.run(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto serial =
        harness::run_config(jobs[i].kind, jobs[i].client, jobs[i].server);
    const auto& par = outcomes[i].result;
    SCOPED_TRACE(jobs[i].client.name);
    EXPECT_EQ(outcomes[i].label, jobs[i].client.name);
    EXPECT_EQ(par.client.instructions, serial.client.instructions);
    EXPECT_EQ(par.client.steady.cycles(), serial.client.steady.cycles());
    EXPECT_EQ(par.client.cold.icache.misses, serial.client.cold.icache.misses);
    EXPECT_EQ(par.client.steady.taken_branches,
              serial.client.steady.taken_branches);
    EXPECT_EQ(par.server.steady.cycles(), serial.server.steady.cycles());
    // Bit-exact doubles: same inputs, same arithmetic, no reordering.
    EXPECT_EQ(par.client.steady.cpi(), serial.client.steady.cpi());
    EXPECT_EQ(par.client.steady.mcpi(), serial.client.steady.mcpi());
    EXPECT_EQ(par.te_us, serial.te_us);
    EXPECT_EQ(par.te_adjusted, serial.te_adjusted);
  }
}

TEST(SweepRunner, CapturesEachFunctionalTraceOnce) {
  // STD/OUT/CLO/BAD share one functional trace; PIN/ALL (path_inlining)
  // share a second.  Six configs -> exactly two captures.
  SweepRunner runner(2);
  const auto outcomes = runner.run(table8_jobs());
  EXPECT_EQ(runner.captures_performed(), 2u);
  std::size_t reused = 0;
  for (const auto& o : outcomes) reused += o.trace_reused ? 1 : 0;
  EXPECT_EQ(reused, outcomes.size() - 2);
  // Re-running the same sweep hits the cache for every job.
  const auto again = runner.run(table8_jobs());
  EXPECT_EQ(runner.captures_performed(), 2u);
  for (const auto& o : again) EXPECT_TRUE(o.trace_reused);
}

TEST(SweepRunner, RunsOnMultipleWorkerThreads) {
  SweepRunner runner(2);
  ASSERT_GE(runner.thread_count(), 2u);
  runner.run(table8_jobs());
  // Six jobs across two workers; both must have picked up work.  (Even on a
  // single hardware core the pool spawns two OS threads.)
  EXPECT_GE(runner.workers_used(), 2u);
}

TEST(SweepRunner, CaptureKeyIgnoresLayoutOnlyFields) {
  const auto base = capture_key(net::StackKind::kTcpIp, StackConfig::Std(),
                                StackConfig::Std(), 64);
  EXPECT_EQ(capture_key(net::StackKind::kTcpIp, StackConfig::Out(),
                        StackConfig::Out(), 64),
            base);
  EXPECT_EQ(capture_key(net::StackKind::kTcpIp, StackConfig::Bad(),
                        StackConfig::Bad(), 64),
            base);
  // Functional fields DO key the cache.
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Pin(),
                        StackConfig::Pin(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Original(),
                        StackConfig::Original(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kRpc, StackConfig::Std(),
                        StackConfig::Std(), 64),
            base);
  EXPECT_NE(capture_key(net::StackKind::kTcpIp, StackConfig::Std(),
                        StackConfig::Std(), 32),
            base);
}

TEST(SweepRunner, ShrunkWarmupIsAPartOfTheKeyAndStillRuns) {
  // MachineParams::warmup_roundtrips lets sweeps shrink warm-up
  // deliberately; a shorter warm-up is a distinct functional capture.
  SweepJob j;
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  j.params.warmup_roundtrips = 16;
  SweepRunner runner(2);
  const auto out = runner.run({j});
  EXPECT_GT(out[0].result.client.instructions, 0u);
  EXPECT_EQ(runner.captures_performed(), 1u);
}

// --- JSON emission -----------------------------------------------------------

/// Minimal structural JSON validator: brace/bracket balance with correct
/// nesting and string/escape handling.  Catches the bugs a hand-rolled
/// writer can introduce without pulling in a JSON library.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(SweepJson, EmitsWellFormedMetrics) {
  SweepJob j;
  j.label = "STD \"quoted\" label";  // exercise escaping
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  SweepRunner runner(2);
  const auto outcomes = runner.run({j});

  std::ostringstream ss;
  harness::write_sweep_json(ss, "unit_test_bench", runner, {j}, outcomes);
  const std::string json = ss.str();

  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"l96.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  for (const char* key :
       {"\"cycles\":", "\"cpi\":", "\"icpi\":", "\"mcpi\":", "\"icache\":",
        "\"dcache\":", "\"bcache\":", "\"misses\":", "\"repl_misses\":",
        "\"wall_ms\":", "\"capture\":", "\"measure\":", "\"te_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(SweepJson, WritesMetricsFile) {
  SweepJob j;
  j.client = StackConfig::Std();
  j.server = StackConfig::Std();
  SweepRunner runner(2);
  const auto outcomes = runner.run({j});

  const std::string dir = ::testing::TempDir() + "/l96_sweep_out";
  const std::string path =
      harness::write_sweep_metrics("test_bench", runner, {j}, outcomes, dir);
  EXPECT_EQ(path, dir + "/test_bench.json");

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_TRUE(json_well_formed(buf.str()));
  EXPECT_NE(buf.str().find("\"bench\":\"test_bench\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Capture, ErrorsNameStackAndConfigs) {
  // An impossible warm-up target must fail with a descriptive message
  // naming the stack kind, config names, and achieved-vs-requested counts.
  net::World world(net::StackKind::kTcpIp, StackConfig::Std(),
                   StackConfig::Std());
  world.start(2);  // client stops ping-ponging after 2 roundtrips
  try {
    harness::capture_traces(world, 500);
    FAIL() << "expected capture to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("TCP/IP"), std::string::npos) << msg;
    EXPECT_NE(msg.find("client=STD"), std::string::npos) << msg;
    EXPECT_NE(msg.find("server=STD"), std::string::npos) << msg;
    EXPECT_NE(msg.find("of 500 requested"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace l96
