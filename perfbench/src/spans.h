// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark itself around each call it
// makes into a library layer (no span is recorded inside the program).
// Each span carries its name, start and end (host nanoseconds since the
// recorder was created), its parent span (-1 for a root) and the workload
// id.  Nothing is written until write_chrome_trace(), so recording costs
// one clock read and one vector push per boundary.
//
// Self time of a span = its duration minus the part of its interval that
// its direct children cover.  With properly nested spans the self times of
// a tree sum exactly to its root's duration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into the span list, -1 = root
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span (same indexing as `spans`).  Children are
/// clipped to their parent's interval and overlapping children are merged,
/// so the result is >= 0 for any input.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  /// A disabled recorder makes begin()/end() no-ops (the untraced runs).
  SpanRecorder(bool enabled, std::string workload);

  bool enabled() const noexcept { return enabled_; }
  const std::string& workload() const noexcept { return workload_; }

  /// Open a span as a child of the innermost open span.  Returns its index
  /// (-1 when disabled).
  int begin(const std::string& name);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations_s(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps); each
  /// event's args carry the span id, parent id, workload and self time.
  void write_chrome_trace(std::ostream& os) const;

 private:
  bool enabled_;
  std::string workload_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& r, const std::string& name)
      : r_(r), id_(r.begin(name)) {}
  ~ScopedSpan() { r_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& r_;
  int id_;
};

/// Monotonic host clock in nanoseconds.
std::int64_t now_ns();

}  // namespace perfbench
