#include "spans.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (int c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, s.duration_ns() - covered);
  }
  return self;
}

SpanRecorder::SpanRecorder(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)), origin_ns_(now_ns()) {}

int SpanRecorder::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns() - origin_ns_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span " + std::to_string(id) +
                           " closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns() - origin_ns_;
  open_.pop_back();
}

std::vector<double> SpanRecorder::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) out.push_back(s.duration_ns() * 1e-9);
  }
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ',';
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":1,\"ts\":" << fmt_num(s.start_ns * 1e-3)
       << ",\"dur\":" << fmt_num(s.duration_ns() * 1e-3)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"workload\":\"" << json_escape(workload_)
       << "\",\"self_us\":" << fmt_num(self[i] * 1e-3) << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
