#include "net/fault.h"

#include <algorithm>
#include <stdexcept>

namespace l96::net {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kDelay: return "delay";
  }
  return "?";
}

void FaultInjector::set_plan(const FaultPlan& plan) {
  for (const FaultRates& r : plan.rates) {
    // Written so a NaN fails too: every comparison with NaN is false.
    for (const double x : {r.drop, r.corrupt, r.duplicate, r.reorder,
                           r.delay}) {
      if (!(x >= 0.0 && x <= 1.0)) {
        throw std::invalid_argument(
            "each fault rate must be a probability in [0, 1]");
      }
    }
    if (r.sum() > 1.0) {
      throw std::invalid_argument("fault rates for one direction exceed 1.0");
    }
  }
  plan_ = plan;
  for (int p = 0; p < 2; ++p) {
    std::sort(plan_.scheduled[p].begin(), plan_.scheduled[p].end(),
              [](const ScheduledFault& a, const ScheduledFault& b) {
                return a.frame_ix < b.frame_ix;
              });
    // Distinct non-zero xorshift states per direction, derived from the
    // seed with splitmix-style mixing so nearby seeds diverge.
    std::uint64_t z = plan_.seed + 0x9E3779B97F4A7C15ull * (p + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    state_[p] = z != 0 ? z : 0x2545F4914F6CDD1Dull + p;
    frame_ix_[p] = 0;
    sched_pos_[p] = 0;
    forced_port_[p].clear();
  }
  forced_drop_ = 0;
  forced_corrupt_ = 0;
  counters_ = FaultCounters{};
  log_.clear();
}

void FaultInjector::force(int port, FaultKind kind, std::uint32_t arg,
                          bool has_arg) {
  if (port != 0 && port != 1) throw std::out_of_range("port must be 0 or 1");
  forced_port_[port].push_back(Forced{kind, arg, has_arg});
}

std::uint64_t FaultInjector::draw(int port) {
  // xorshift64* (Vigna); the state is never zero.
  std::uint64_t x = state_[port];
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state_[port] = x;
  return x * 0x2545F4914F6CDD1Dull;
}

void FaultInjector::count(FaultKind kind, bool forced) {
  switch (kind) {
    case FaultKind::kDrop: ++counters_.drops; break;
    case FaultKind::kCorrupt: ++counters_.corrupts; break;
    case FaultKind::kDuplicate: ++counters_.duplicates; break;
    case FaultKind::kReorder: ++counters_.reorders; break;
    case FaultKind::kDelay: ++counters_.delays; break;
    case FaultKind::kNone: break;
  }
  if (forced && kind != FaultKind::kNone) ++counters_.forced;
}

FaultDecision FaultInjector::next(int port, std::size_t frame_len,
                                  std::uint64_t now_us) {
  if (port != 0 && port != 1) throw std::out_of_range("port must be 0 or 1");
  const std::uint64_t ix = frame_ix_[port]++;

  // Two draws per frame, consumed unconditionally: u1 picks the kind,
  // u2 resolves its argument.  Forced and scheduled faults override the
  // random verdict but never perturb the stream.
  const std::uint64_t u1 = draw(port);
  const std::uint64_t u2 = draw(port);

  FaultKind kind = FaultKind::kNone;
  std::uint32_t arg = 0;
  bool has_arg = false;
  bool forced = false;

  if (forced_drop_ > 0) {
    --forced_drop_;
    kind = FaultKind::kDrop;
    forced = true;
  } else if (forced_corrupt_ > 0) {
    --forced_corrupt_;
    kind = FaultKind::kCorrupt;
    // The historical drop_next/corrupt_next semantics: flip the middle byte.
    arg = static_cast<std::uint32_t>(frame_len / 2);
    has_arg = true;
    forced = true;
  } else if (!forced_port_[port].empty()) {
    const Forced f = forced_port_[port].front();
    forced_port_[port].pop_front();
    kind = f.kind;
    arg = f.arg;
    has_arg = f.has_arg;
    forced = true;
  } else if (sched_pos_[port] < plan_.scheduled[port].size() &&
             plan_.scheduled[port][sched_pos_[port]].frame_ix == ix) {
    const ScheduledFault& s = plan_.scheduled[port][sched_pos_[port]++];
    kind = s.kind;
    arg = s.arg;
    has_arg = s.has_arg;
  } else if (ix >= plan_.start_after_frames) {
    const FaultRates& r = plan_.rates[port];
    const double u =
        static_cast<double>(u1 >> 11) * 0x1.0p-53;  // uniform [0,1)
    double edge = r.drop;
    if (u < edge) {
      kind = FaultKind::kDrop;
    } else if (u < (edge += r.corrupt)) {
      kind = FaultKind::kCorrupt;
    } else if (u < (edge += r.duplicate)) {
      kind = FaultKind::kDuplicate;
    } else if (u < (edge += r.reorder)) {
      kind = FaultKind::kReorder;
    } else if (u < (edge += r.delay)) {
      kind = FaultKind::kDelay;
    }
  }

  if (kind == FaultKind::kNone) return FaultDecision{};

  if (!has_arg) {
    if (kind == FaultKind::kCorrupt) {
      arg = frame_len > 0 ? static_cast<std::uint32_t>(u2 % frame_len) : 0;
    } else if (kind == FaultKind::kDelay) {
      const std::uint32_t lo = plan_.delay_min_us;
      const std::uint32_t hi = std::max(plan_.delay_max_us, lo);
      arg = lo + static_cast<std::uint32_t>(u2 % (hi - lo + 1));
    }
  }

  count(kind, forced);
  log_.push_back(FaultRecord{ix, now_us, static_cast<std::uint8_t>(port),
                             kind, arg});
  return FaultDecision{kind, arg};
}

}  // namespace l96::net
