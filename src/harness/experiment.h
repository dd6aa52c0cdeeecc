// Measurement kernel: runs a configured two-host world, captures one
// steady-state roundtrip's protocol processing per side, lowers it under
// the configuration's code image, and replays it through the machine model
// — producing every number Tables 2 and 4-9 report.
//
// Methodology (documented in EXPERIMENTS.md):
//  * Warm-up: enough roundtrips for TCP's congestion window to open fully,
//    so the captured roundtrip is the steady-state latency path.
//  * Capture: one receive-interrupt activation on each host = one
//    roundtrip's full protocol processing (input path, the upcall that
//    sends the next message, and the post-transmit work that overlaps the
//    frame's flight).  The transmit point splits critical-path work from
//    overlapped work.
//  * Cold replay (Table 6): the trace once through cold caches — the
//    paper's trace-driven cache simulation.
//  * Steady replay (Table 7): warm-up passes with untraced-code cache
//    scrubbing between activations, then one measured pass — the paper's
//    processing-time measurement on live hardware.
//  * End-to-end (Tables 4/5): two controller+wire traversals (the paper's
//    measured 105 us each) plus each side's critical-path processing time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "code/analysis.h"
#include "code/config.h"
#include "code/image.h"
#include "code/lower.h"
#include "net/world.h"
#include "sim/machine.h"

namespace l96::harness {

struct MachineParams {
  sim::MemorySystem::Config mem{};
  sim::Cpu::Config cpu{};
  /// Roundtrips run before capture so TCP's congestion window is fully open
  /// and the captured roundtrip is the steady-state latency path.  Sweeps
  /// may shrink this deliberately when the functional path stabilizes
  /// earlier (it is part of the trace-capture cache key).
  std::uint64_t warmup_roundtrips = 64;
  /// Steady-state replay: warm-up passes with primary-cache scrubbing in
  /// between (untraced interrupt/context-switch code evicting lines).
  std::uint32_t warmup_passes = 3;
  double scrub_fraction = 1.0;
  double scrub_fraction_d = 0.55;
  std::uint64_t scrub_seed = 0x9E3779B97F4A7C15ULL;

  static MachineParams defaults() { return MachineParams{}; }
};

/// Everything measured for one side (client or server) of one config.
struct SideMeasurement {
  std::string config_name;
  std::uint64_t instructions = 0;        ///< dynamic trace length
  std::uint64_t critical_instructions = 0;
  sim::RunResult cold;                   ///< Table 6 replay
  sim::RunResult steady;                 ///< Table 7 replay
  sim::RunResult critical;               ///< steady replay of critical prefix
  code::FootprintStats footprint;        ///< Table 9 inputs
  double tp_us = 0;                      ///< steady processing time
  double critical_us = 0;                ///< pre-transmit processing time
  std::uint64_t static_hot_words = 0;    ///< image hot-segment size
  std::uint64_t static_total_words = 0;
  /// Miss-attribution snapshots of the cold and steady full replays; null
  /// unless MeasureSpec::profile_misses was set.  shared_ptr keeps the
  /// struct cheap to copy (benches pass SideMeasurements around by value).
  std::shared_ptr<const sim::MissProfile> miss_cold;
  std::shared_ptr<const sim::MissProfile> miss_steady;
};

struct ConfigResult {
  SideMeasurement client;
  SideMeasurement server;
  double te_us = 0;       ///< end-to-end roundtrip (Table 4)
  double te_adjusted = 0; ///< minus controller overhead (Table 5)
};

/// One steady-state roundtrip captured per side of a running world.
struct CaptureResult {
  code::PathTrace client;
  code::PathTrace server;
  std::size_t client_split = 0;
  std::size_t server_split = 0;
};

/// Warm the world up (`warmup_roundtrips` ping-pongs), then capture one
/// receive-interrupt activation per side.  Throws std::runtime_error naming
/// the stack kind, both config names, and achieved-vs-requested roundtrip
/// counts when the world stalls.  The returned traces reference function
/// ids from the world's per-host registries, so the world must outlive any
/// lowering of them.
CaptureResult capture_traces(net::World& world,
                             std::uint64_t warmup_roundtrips);

/// Record the next receive activation at `front` into `trace`: arm the
/// capture, run `events` until it completes, and return its tx split.
/// Throws std::runtime_error(`stalled`) when none completes within
/// `max_us` of virtual time.
std::size_t capture_next(xk::EventManager& events, net::FrontEnd& front,
                         code::PathTrace& trace, const std::string& stalled,
                         std::uint64_t max_us = 10'000'000);

/// A running world with one steady-state roundtrip captured per side: what
/// every measurement borrows its registries and traces from.  The traces
/// reference function ids of the world's per-host registries, so the world
/// lives exactly as long as the capture.
struct Capture {
  std::unique_ptr<net::World> world;
  CaptureResult traces;
  /// Two controller+wire traversals of a minimum frame: Te's fixed part
  /// (the paper measures 105 us each).
  double controller_us = 0;
};

/// Build and start a (kind, client, server) world, then capture_traces() it.
Capture capture_world(
    net::StackKind kind, const code::StackConfig& ccfg,
    const code::StackConfig& scfg,
    std::uint64_t warmup_roundtrips = MachineParams{}.warmup_roundtrips);

/// Build the code image for `cfg` over `reg`, using `profile` as the layout
/// profile.  Pure function of its inputs.
code::CodeImage build_image(net::StackKind kind, const code::StackConfig& cfg,
                            const code::CodeRegistry& reg,
                            const code::PathTrace& profile,
                            const MachineParams& params);

/// Everything measure_side() needs for one side of one configuration,
/// bundled: the struct names every field, defaults the profile to the
/// replayed trace, and leaves room for measurement options like
/// profile_misses without another signature.
struct MeasureSpec {
  net::StackKind kind = net::StackKind::kTcpIp;
  code::StackConfig cfg;
  /// Registry the trace's function ids refer to (the owning World's).
  const code::CodeRegistry* registry = nullptr;
  /// The activation to lower and replay.
  const code::PathTrace* trace = nullptr;
  /// Layout profile the image is built from; nullptr means `trace` itself
  /// (the mainline case).  Point it at a different capture to replay an
  /// off-profile activation (e.g. an error path) under the mainline image.
  const code::PathTrace* profile = nullptr;
  /// Events of `trace` preceding the transmit point (critical path).
  std::size_t split = 0;
  /// Per-side scrub-seed offset (client 0 / server 1 by convention).
  std::uint64_t seed_offset = 0;
  MachineParams params = MachineParams::defaults();
  /// Attach a sim::MissProfiler to the cold and steady full replays and
  /// store snapshots in SideMeasurement::miss_cold / miss_steady.
  bool profile_misses = false;
};

enum class Side { kClient, kServer };

/// The MeasureSpec for one side of `cap` laid out under `cfg`: that side's
/// registry, trace and transmit split, scrub-seed offset 0 (client) or 1
/// (server), no miss profiling.
MeasureSpec side_spec(const Capture& cap, Side side,
                      const code::StackConfig& cfg,
                      const MachineParams& params);

/// Lower spec.trace under spec.cfg's image and replay it cold + steady: the
/// measurement kernel shared by run_config, SweepRunner and the benches.
/// Pure function of the spec; reads the registry and traces only — safe to
/// call concurrently from multiple threads over the same registry/trace.
/// Throws std::invalid_argument when registry or trace is null.
SideMeasurement measure_side(const MeasureSpec& spec);

/// The first `events` events of spec.trace (all of them by default)
/// lowered under spec.cfg's image: the instruction stream measure_side()
/// replays.  `lower_trace(spec).size()` is its `instructions` and
/// `lower_trace(spec, spec.split).size()` its `critical_instructions`.
/// Throws std::invalid_argument when registry or trace is null.
sim::MachineTrace lower_trace(const MeasureSpec& spec,
                              std::size_t events = SIZE_MAX);

/// An activation *stream*: a sequence of path activations priced under one
/// continuously-evolving cache state (a back-to-back burst).  The single-
/// activation steady replay models "untraced code ran since the last
/// packet" (warm-up + scrub); a stream scrubs only before position 0, so
/// position 0 is the first-packet-in-burst cost (identical to the steady
/// replay) and later positions amortize the warm-up their predecessors
/// already paid.
struct StreamSpec {
  /// Image, registry, params, scrub seed and warm-up activation all come
  /// from `base`; base.trace is the default burst activation.
  MeasureSpec base;
  /// Number of back-to-back replays of base.trace (ignored when
  /// `activations` is non-empty).  Must be >= 1.
  std::size_t burst = 1;
  /// Explicit heterogeneous sequence (e.g. an error-path activation in the
  /// middle of a clean burst); every trace must reference base.registry.
  /// Empty means `burst` x base.trace.
  std::vector<const code::PathTrace*> activations;
};

/// Cost of one position of an activation stream.
struct StreamPosition {
  sim::RunResult steady;  ///< measured replay at this position
  double tp_us = 0;       ///< processing time at this position
};

struct StreamMeasurement {
  std::string config_name;
  std::vector<StreamPosition> positions;
  /// Whole-stream miss attribution (per-position rows + carryover hits);
  /// null unless base.profile_misses was set.
  std::shared_ptr<const sim::MissProfile> miss;

  double first_us() const { return positions.front().tp_us; }
  double steady_us() const { return positions.back().tp_us; }
};

/// Replay an activation stream and return per-position costs.  Position 0
/// is byte-identical to measure_side(spec.base)'s steady replay (tested).
/// Throws std::invalid_argument on a null registry/trace or an empty
/// stream.
StreamMeasurement measure_stream(const StreamSpec& spec);

/// Combine two side measurements into the end-to-end numbers (Tables 4/5).
ConfigResult combine_sides(SideMeasurement client, SideMeasurement server,
                           double controller_us);

/// `n` end-to-end samples that differ only in the scrub seed (Table 4's
/// mean +/- sd).  Sample k is controller + the client's critical prefix
/// replayed at seed offset 100 + 7k + the server's at 200 + 13k.  Each side is imaged and lowered
/// once; every sample equals that sum over measure_side(...).critical_us
/// at the same offsets, bit for bit (tested).
std::vector<double> measure_te_samples(const Capture& cap,
                                       const code::StackConfig& ccfg,
                                       const code::StackConfig& scfg,
                                       const MachineParams& params,
                                       std::uint64_t n);

/// One configuration end to end: capture_world(), then measure_side() on
/// each side's side_spec(), then combine_sides().
ConfigResult run_config(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg,
                        MachineParams params = MachineParams::defaults());

/// The six paper configurations in Table 4's order.
std::vector<code::StackConfig> paper_configs();

}  // namespace l96::harness
