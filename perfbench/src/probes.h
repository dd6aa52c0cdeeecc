// Per-layer probes of the traced run.
//
// Each probe times calls into one layer's public functions over inputs
// taken from the workload's own spec: the stacks and configurations it
// captures, the per-world flow population and Zipf key stream it drives,
// its classifier rule set, its timer depth and its backend pool.  A probe
// wraps each timed batch in a span; the metric is read back from the span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "code/config.h"
#include "code/flow_cache.h"
#include "harness/experiment.h"
#include "metrics.h"
#include "net/world.h"
#include "spans.h"

namespace perfbench {

/// One functional configuration the workload captures and measures.
struct CaptureSpec {
  l96::net::StackKind kind = l96::net::StackKind::kTcpIp;
  l96::code::StackConfig client;
  l96::code::StackConfig server;
  /// Scrub-seed variants measured per side (the sweep's te samples; the
  /// fleets' cost-table replays).
  std::uint64_t side_samples = 1;
};

struct ProbeSpec {
  l96::harness::MachineParams params;
  std::vector<CaptureSpec> captures;

  /// Demux population of one world and its key stream (indices into the
  /// world's flows, in the order the workload draws them).
  l96::net::StackKind flow_kind = l96::net::StackKind::kTcpIp;
  std::size_t population = 1;
  std::vector<std::uint32_t> key_stream;
  std::size_t rules = 0;
  std::uint64_t rule_seed = 1;
  l96::code::FlowCacheScheme cache_scheme = l96::code::FlowCacheScheme::kLru;
  std::size_t cache_capacity = 8;
  l96::code::FlowCacheCosts cache_costs{};

  /// Pending timers in one world while the workload runs.
  std::size_t timer_depth = 1;

  /// Backend pool and the alive sets its script steps through (empty when
  /// the workload has no LB tier).
  std::size_t backends = 0;
  std::vector<std::vector<bool>> alive_sets;
};

/// Run every probe; fills the harness/code/sim/xkernel/protocols metrics
/// and net.maglev_rebuild_us.  Returns false (with `error` set) when the
/// probe inputs break an invariant (a workload frame that misses the real
/// path, engines that disagree).
bool run_probes(const ProbeSpec& spec, SpanRecorder& rec, MetricValues& out,
                std::string* error);

/// Tuple and linear engines agree on the first 4096 frames of the
/// workload's key stream, and each frame selects the real fast path.  On
/// the first violation returns false with `error` set.
bool check_classifier_agreement(const ProbeSpec& spec, std::string* error);

}  // namespace perfbench
