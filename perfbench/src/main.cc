// perfbench: host-speed benchmark of the latency96 harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-describe TEXT]
//
// One process runs one workload (workloads.h) on at most min(4, nproc)
// worker threads:
//
//  1. setup, five times from scratch (setup_s is the median; the first
//     repetition is timed from process start);
//  2. the once-per-process correctness gates;
//  3. the timed loop: engine calls until S seconds have passed (at least
//     three), each checked for correctness.  pkts_per_s and configs_per_s
//     are medians over the calls.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// and traced calls in the timed loop (trace.overhead_frac compares their
// headline metric), then runs the per-layer probes, and prints the
// per-layer metrics; the spans are written as Chrome trace-event JSON.
// Both modes write a run manifest (build, host, seed, workload spec, raw
// per-call samples, failures) beside it, outside the printed metrics.
// The last stdout line is the JSON result; exit status is 1 when any
// correctness check failed and 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness/json.h"
#include "metrics.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Gate;
using perfbench::MetricValues;
using perfbench::Rep;
using perfbench::SpanRecorder;
using perfbench::ScopedSpan;
using l96::harness::Json;

/// A seed no workload tuning used: later claims are checked on it too.
constexpr std::uint64_t kHeldOutSeed = 7919;
constexpr unsigned kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/runs";
  std::string git_describe = "unknown";
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-describe TEXT]\n",
               msg);
  return 2;
}

bool parse(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        err = "--trace takes 0 or 1";
        return false;
      }
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--git-describe") {
      a.git_describe = v;
    } else {
      err = "unknown option " + k;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      err = "bad number for " + k + ": " + v;
      return false;
    }
  }
  if (a.workload.empty()) err = "--workload is required";
  else if (!(a.seconds > 0)) err = "--seconds must be > 0";
  return err.empty();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Run `body`, counting an exception as one failed operation.
template <typename F>
void guarded(Gate& gate, const std::string& what, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    gate.check(false, what + ": " + e.what());
  }
}

/// Engine calls until `seconds` have passed and at least three ran per
/// recorder.  With a traced recorder the calls alternate untraced /
/// traced, so drift over the run falls on both halves alike.
void timed_loop(perfbench::Workload& w, SpanRecorder& untraced,
                SpanRecorder* traced, Gate& gate, double seconds,
                std::vector<Rep>& plain, std::vector<Rep>& with_spans) {
  constexpr std::size_t kMinReps = 3;
  const std::int64_t t0 = perfbench::now_ns();
  const std::uint64_t failed_at_start = gate.failed;
  for (std::size_t i = 0;; ++i) {
    const bool enough = plain.size() >= kMinReps &&
                        (traced == nullptr || with_spans.size() >= kMinReps);
    if (enough &&
        static_cast<double>(perfbench::now_ns() - t0) * 1e-9 >= seconds) {
      break;
    }
    const bool use_traced = traced != nullptr && i % 2 == 1;
    std::vector<Rep>& out = use_traced ? with_spans : plain;
    SpanRecorder& rec = use_traced ? *traced : untraced;
    guarded(gate, std::string(w.name()) + " engine call",
            [&] { out.push_back(w.run_once(rec, gate)); });
    // A workload that keeps failing will not start passing: stop early.
    if (gate.failed > failed_at_start + 8) break;
  }
}

double median_of(const std::vector<Rep>& reps, double (*f)(const Rep&)) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(f(r));
  return perfbench::median(std::move(xs));
}

double pkts_per_s(const Rep& r) { return r.packets / r.engine_s; }
double configs_per_s(const Rep& r) { return r.rows / r.engine_s; }

Json samples_json(const std::vector<Rep>& reps) {
  Json arr = Json::array();
  for (const Rep& r : reps) {
    arr.push_back(Json::object()
                      .set("engine_s", r.engine_s)
                      .set("cpu_s", r.cpu_s)
                      .set("packets", r.packets)
                      .set("rows", r.rows)
                      .set("workers_used", r.workers_used));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::now_ns();
  Args args;
  std::string err;
  if (!parse(argc, argv, args, err)) return usage(err.c_str());

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(4u, hw);
  std::unique_ptr<perfbench::Workload> w;
  try {
    w = perfbench::make_workload(args.workload, args.seed, workers);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  SpanRecorder rec(args.trace, args.workload);
  SpanRecorder untraced(false, args.workload);
  Gate gate;
  MetricValues layer;
  std::vector<double> setup_s;
  std::vector<Rep> reps, traced_reps;
  {
    ScopedSpan root(rec, "perfbench." + args.workload);
    for (unsigned r = 0; r < kSetupReps; ++r) {
      const std::int64_t t0 = r == 0 ? process_start : perfbench::now_ns();
      {
        ScopedSpan s(rec, "setup");
        guarded(gate, "setup", [&] { w->setup(rec, gate); });
      }
      setup_s.push_back(static_cast<double>(perfbench::now_ns() - t0) * 1e-9);
    }
    guarded(gate, "gate", [&] { w->gate_once(rec, gate); });

    {
      ScopedSpan s(rec, "timed");
      timed_loop(*w, untraced, args.trace ? &rec : nullptr, gate,
                 args.seconds, reps, traced_reps);
    }
    if (args.trace) guarded(gate, "probes", [&] { w->probe(rec, layer); });
  }

  // The printed metric set, in catalogue order.
  std::vector<std::pair<const perfbench::MetricDef*, double>> printed;
  Json not_applicable = Json::array();
  if (!args.trace) {
    MetricValues e2e;
    e2e["pkts_per_s"] = median_of(reps, pkts_per_s);
    e2e["configs_per_s"] = median_of(reps, configs_per_s);
    e2e["setup_s"] = perfbench::median(setup_s);
    e2e["peak_rss_mb"] = peak_rss_mb();
    e2e["te_err_pct"] = w->anchor().te_err_pct;
    for (const auto& d : perfbench::end_to_end_defs()) {
      printed.emplace_back(&d, e2e.at(d.name));
    }
  } else {
    // Timings of calls the workload made (a span it never opened stays
    // unset and prints as not applicable).
    const auto from_span = [&](const char* metric, const char* span) {
      const std::vector<double> d = rec.durations_s(span);
      if (!d.empty()) layer[metric] = perfbench::median(d);
    };
    from_span("harness.cost_tables_s", "harness.cost_tables");
    from_span("harness.engine_s", "harness.engine");
    from_span("harness.emit_s", "harness.emit");
    from_span("harness.steer_s", "harness.steer_flows");
    layer["harness.workers_used"] =
        median_of(traced_reps, [](const Rep& r) { return r.workers_used; });
    layer["harness.cpu_s"] =
        median_of(traced_reps, [](const Rep& r) { return r.cpu_s; });
    layer["model.te_us.tcpip.ALL"] = w->anchor().te_all_tcpip_us;
    layer["model.te_us.rpc.ALL"] = w->anchor().te_all_rpc_us;
    // Every call of a workload does the same work, so the relative change
    // is the same for pkts_per_s and configs_per_s.
    const double plain = median_of(reps, pkts_per_s);
    layer["trace.overhead_frac"] =
        plain > 0 ? (plain - median_of(traced_reps, pkts_per_s)) / plain : 0;
    for (const auto& d : perfbench::per_layer_defs()) {
      const auto it = layer.find(d.name);
      if (it == layer.end()) not_applicable.push_back(d.name);
      printed.emplace_back(&d, it == layer.end() ? 0.0 : it->second);
    }
  }

  // Manifest and trace, outside the printed metrics.
  const std::string stem = args.workload + "-seed" + std::to_string(args.seed) +
                           "-trace" + (args.trace ? "1" : "0");
  Json failures = Json::array();
  for (const auto& e : gate.errors) failures.push_back(e);
  Json manifest =
      Json::object()
          .set("schema", "perfbench.manifest.v1")
          .set("workload", args.workload)
          .set("seed", args.seed)
          .set("held_out_seed", kHeldOutSeed)
          .set("seconds", args.seconds)
          .set("trace", args.trace)
          .set("build_type", PERFBENCH_BUILD_TYPE)
          .set("git_describe", args.git_describe)
          .set("nproc", static_cast<std::uint64_t>(hw))
          .set("workers", static_cast<std::uint64_t>(workers))
          .set("workers_used",
               median_of(reps, [](const Rep& r) { return r.workers_used; }))
          .set("spec", w->spec())
          .set("setup_s", [&] {
            Json a = Json::array();
            for (double s : setup_s) a.push_back(s);
            return a;
          }())
          .set("calls", samples_json(reps))
          .set("traced_calls", samples_json(traced_reps))
          .set("not_applicable", std::move(not_applicable))
          .set("attempted", gate.attempted)
          .set("failed", gate.failed)
          .set("failures", std::move(failures));
  try {
    std::filesystem::create_directories(args.out_dir);
    std::ofstream(args.out_dir + "/manifest-" + stem + ".json")
        << manifest.dump() << "\n";
    if (args.trace) {
      std::ofstream f(args.out_dir + "/trace-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".json");
      rec.write_chrome_trace(f);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n",
                 args.out_dir.c_str(), e.what());
  }

  for (const auto& e : gate.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  for (const auto& [d, v] : printed) {
    std::printf("%-32s %.6g %s\n", d->name, v, d->unit);
  }
  std::string metrics;
  for (const auto& [d, v] : printed) {
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + std::string(d->name) + "\":{\"value\":" +
               perfbench::fmt_num(v) + ",\"unit\":\"" + d->unit + "\"}";
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(1, gate.attempted);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(gate.failed), metrics.c_str());
  std::fflush(stdout);
  return gate.failed == 0 ? 0 : 1;
}
