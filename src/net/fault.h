// Deterministic fault injection for the wire.
//
// A FaultPlan is a seeded, per-direction schedule of drop / corrupt /
// duplicate / reorder / delay events applied inside Wire::transmit.  The
// random stream is xorshift64* keyed by (seed, transmitting port): each
// direction's fault sequence is a pure function of the seed and that
// direction's frame index, independent of how traffic interleaves across
// directions.  No wall-clock anywhere — the whole simulation is virtual
// time, so any run reproduces byte-identically from (seed, plan) alone.
// The injector keeps per-kind counters and a replay log of every fault it
// applied, so a failing soak can be diagnosed and replayed offline.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace l96::net {

enum class FaultKind : std::uint8_t {
  kNone,
  kDrop,       ///< frame vanishes on the wire
  kCorrupt,    ///< one byte XOR 0xFF at a chosen offset
  kDuplicate,  ///< frame delivered twice (two serializations)
  kReorder,    ///< frame held and delivered after its successor
  kDelay,      ///< extra receive latency (controller hiccup)
};

const char* to_string(FaultKind k);

/// Per-frame fault probabilities for one direction.  Evaluated in the
/// order listed; the probabilities are cumulative slices of one uniform
/// draw, so their sum must stay <= 1.
struct FaultRates {
  double drop = 0;
  double corrupt = 0;
  double duplicate = 0;
  double reorder = 0;
  double delay = 0;
  double sum() const noexcept {
    return drop + corrupt + duplicate + reorder + delay;
  }
};

/// A fault pinned to an exact per-direction frame index (deterministic
/// tests and the fault bench use these; they fire regardless of rates).
struct ScheduledFault {
  std::uint64_t frame_ix = 0;  ///< per-direction transmit index (0-based)
  FaultKind kind = FaultKind::kNone;
  std::uint32_t arg = 0;   ///< corrupt: byte offset; delay: extra us
  bool has_arg = false;    ///< false = derive the arg from the stream
};

struct FaultPlan {
  std::uint64_t seed = 1;
  FaultRates rates[2];                       ///< by transmitting port
  std::vector<ScheduledFault> scheduled[2];  ///< by transmitting port
  /// Leave this many initial frames per direction untouched by the random
  /// rates (lets handshakes / warm-up complete cleanly; scheduled and
  /// forced faults are not deferred).
  std::uint64_t start_after_frames = 0;
  std::uint32_t delay_min_us = 100;   ///< random delay lower bound
  std::uint32_t delay_max_us = 2000;  ///< random delay upper bound
  /// A reordered frame departs right after the next frame in its
  /// direction; if none shows up, this fallback flushes it.
  std::uint64_t reorder_hold_us = 500;
};

struct FaultCounters {
  std::uint64_t drops = 0;
  std::uint64_t corrupts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t delays = 0;
  std::uint64_t forced = 0;  ///< subset injected via the one-shot APIs
  std::uint64_t total() const noexcept {
    return drops + corrupts + duplicates + reorders + delays;
  }
};

/// One applied fault, for the replay log.
struct FaultRecord {
  std::uint64_t frame_ix = 0;  ///< per-direction transmit index
  std::uint64_t at_us = 0;     ///< virtual time of the transmit
  std::uint8_t port = 0;       ///< transmitting port
  FaultKind kind = FaultKind::kNone;
  std::uint32_t arg = 0;       ///< resolved arg (offset / delay us)
  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// The per-frame verdict Wire::transmit acts on.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  std::uint32_t arg = 0;
};

class FaultInjector {
 public:
  FaultInjector() { set_plan(FaultPlan{}); }

  /// Install a plan and reset all stream/schedule state (counters and the
  /// replay log are reset too: a plan defines a run).
  void set_plan(const FaultPlan& plan);
  const FaultPlan& plan() const noexcept { return plan_; }

  // Legacy one-shot API: applies to the next transmit in either direction.
  void force_drop(int count = 1) { forced_drop_ += count; }
  void force_corrupt(int count = 1) { forced_corrupt_ += count; }

  /// One-shot fault for the next transmit on `port` (consumed in order,
  /// ahead of the plan).  `has_arg` false derives the arg like the random
  /// stream would.
  void force(int port, FaultKind kind, std::uint32_t arg = 0,
             bool has_arg = false);

  /// Decide the fate of the next frame transmitted on `port`.  Consumes
  /// exactly two PRNG draws from the port's stream per call, so random
  /// decisions depend only on (seed, port, frame index).
  FaultDecision next(int port, std::size_t frame_len, std::uint64_t now_us);

  const FaultCounters& counters() const noexcept { return counters_; }
  const std::vector<FaultRecord>& log() const noexcept { return log_; }

 private:
  struct Forced {
    FaultKind kind;
    std::uint32_t arg;
    bool has_arg;
  };

  std::uint64_t draw(int port);
  void count(FaultKind kind, bool forced);

  FaultPlan plan_;
  std::uint64_t state_[2] = {1, 2};
  std::uint64_t frame_ix_[2] = {0, 0};
  std::size_t sched_pos_[2] = {0, 0};
  int forced_drop_ = 0;
  int forced_corrupt_ = 0;
  std::deque<Forced> forced_port_[2];
  FaultCounters counters_;
  std::vector<FaultRecord> log_;
};

}  // namespace l96::net
