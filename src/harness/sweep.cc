#include "harness/sweep.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "harness/missmap.h"
#include "harness/runner.h"
#include "protocols/lance.h"

namespace l96::harness {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void append_functional_fields(std::string& key, const code::StackConfig& c) {
  // Every field that changes the recorded PathTrace or the registry
  // contents: the Section-2 toggles resize blocks and alter functional
  // behaviour; path_inlining brackets classifier misses in slow-path
  // markers.  Layout-only fields are deliberately absent.
  const bool bits[] = {c.tcb_word_fields,       c.msg_refresh_shortcut,
                       c.usc_sparse_descriptors, c.inline_map_cache_test,
                       c.avoid_int_division,     c.careful_inlining,
                       c.minor_opts,             c.header_prediction,
                       c.path_inlining};
  for (bool b : bits) key.push_back(b ? '1' : '0');
}

}  // namespace

void SweepOutcome::extra_json(const std::string& key, Json section) {
  if (!section.is_object()) {
    throw std::invalid_argument("extra_json('" + key +
                                "'): section must be a JSON object");
  }
  const Json* schema = section.find("schema");
  if (schema == nullptr || schema->as_string() == nullptr ||
      schema->as_string()->empty()) {
    throw std::invalid_argument(
        "extra_json('" + key +
        "'): section must carry a string \"schema\" field "
        "(start from json_section())");
  }
  sections_.set(key, std::move(section));
}

std::string capture_key(net::StackKind kind, const code::StackConfig& ccfg,
                        const code::StackConfig& scfg,
                        std::uint64_t warmup_roundtrips) {
  std::string key = kind == net::StackKind::kTcpIp ? "tcpip/" : "rpc/";
  append_functional_fields(key, ccfg);
  key.push_back('/');
  append_functional_fields(key, scfg);
  key += "/w" + std::to_string(warmup_roundtrips);
  return key;
}

const TraceCaptureCache::Entry& TraceCaptureCache::get(
    net::StackKind kind, const code::StackConfig& ccfg,
    const code::StackConfig& scfg, std::uint64_t warmup_roundtrips,
    bool* was_cached) {
  const std::string key = capture_key(kind, ccfg, scfg, warmup_roundtrips);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++it->second.hits;
    if (was_cached != nullptr) *was_cached = true;
    return it->second;
  }
  if (was_cached != nullptr) *was_cached = false;

  const auto t0 = std::chrono::steady_clock::now();
  Entry e;
  e.world = std::make_unique<net::World>(kind, ccfg, scfg);
  e.world->start(~std::uint64_t{0});
  e.traces = capture_traces(*e.world, warmup_roundtrips);
  e.controller_us =
      2.0 * e.world->wire().params().one_way_us(proto::Lance::kMinFrame);
  e.capture_wall_ms = wall_ms_since(t0);
  return entries_.emplace(key, std::move(e)).first->second;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(resolve_workers(threads)) {}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepJob>& jobs) {
  std::vector<SweepOutcome> out(jobs.size());

  // Phase 1 (serial): resolve every job's capture through the cache.  The
  // worlds mutate while capturing, so this stays single-threaded; the
  // resulting traces and registries are immutable afterwards.
  std::vector<const TraceCaptureCache::Entry*> entries(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool cached = false;
    entries[i] = &cache_.get(jobs[i].kind, jobs[i].client, jobs[i].server,
                             jobs[i].params.warmup_roundtrips, &cached);
    out[i].label =
        jobs[i].label.empty() ? jobs[i].client.name : jobs[i].label;
    out[i].trace_reused = cached;
    out[i].capture_wall_ms = cached ? 0.0 : entries[i]->capture_wall_ms;
  }

  // Phase 2 (parallel): lower + simulate each job.  measure_side() reads
  // only the shared registry/trace, so jobs share nothing writable; results
  // land at their job index, keeping output order deterministic.
  std::vector<std::string> errors(jobs.size());
  workers_used_ = run_indexed_jobs(jobs.size(), threads_, [&](std::size_t i) {
    const SweepJob& job = jobs[i];
    const TraceCaptureCache::Entry& e = *entries[i];
    const auto t0 = std::chrono::steady_clock::now();
    try {
      MeasureSpec cspec;
      cspec.kind = job.kind;
      cspec.cfg = job.client;
      cspec.registry = &e.world->client().registry();
      cspec.trace = &e.traces.client;
      cspec.split = e.traces.client_split;
      cspec.seed_offset = 0;
      cspec.params = job.params;
      cspec.profile_misses = job.profile_misses;

      MeasureSpec sspec;
      sspec.kind = job.kind;
      sspec.cfg = job.server;
      sspec.registry = &e.world->server().registry();
      sspec.trace = &e.traces.server;
      sspec.split = e.traces.server_split;
      sspec.seed_offset = 1;
      sspec.params = job.params;
      sspec.profile_misses = job.profile_misses;

      auto c = measure_side(cspec);
      auto s = measure_side(sspec);
      out[i].result = combine_sides(std::move(c), std::move(s),
                                    e.controller_us,
                                    job.client.path_inlining,
                                    job.server.path_inlining, job.params);
      // te samples vary only the scrub seed; never profiled.  They carry
      // the same per-inbound-packet classifier charge as combine_sides()
      // (and Experiment::te_samples), so sampled means agree with te_us.
      cspec.profile_misses = sspec.profile_misses = false;
      const double classify =
          (job.client.path_inlining ? job.params.classifier_overhead_us
                                    : 0.0) +
          (job.server.path_inlining ? job.params.classifier_overhead_us
                                    : 0.0);
      for (std::uint64_t k = 0; k < job.te_sample_count; ++k) {
        cspec.seed_offset = 100 + k * 7;
        sspec.seed_offset = 200 + k * 13;
        auto sc = measure_side(cspec);
        auto ss = measure_side(sspec);
        out[i].te_samples.push_back(e.controller_us + classify +
                                    sc.critical_us + ss.critical_us);
      }
      if (job.profile_misses) {
        out[i].extra_json("missmap", missmap_json(out[i].result));
      }
    } catch (const std::exception& ex) {
      errors[i] = ex.what();
    }
    out[i].measure_wall_ms = wall_ms_since(t0);
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("sweep job '" + out[i].label +
                               "' failed: " + errors[i]);
    }
  }
  return out;
}

// --- JSON emission ---------------------------------------------------------

namespace {

// The hand-built fast emission below predates the Json class; it shares the
// escaping and number formatting so both paths stay byte-compatible.
std::string json_escape(const std::string& s) { return Json::escape(s); }
std::string num(double v) { return Json::number(v); }

void write_cache(std::ostream& os, const char* name,
                 const sim::CacheStats& s) {
  os << '"' << name << "\":{\"accesses\":" << s.accesses
     << ",\"misses\":" << s.misses << ",\"repl_misses\":" << s.repl_misses
     << '}';
}

void write_run(std::ostream& os, const char* name, const sim::RunResult& r) {
  os << '"' << name << "\":{\"instructions\":" << r.instructions
     << ",\"cycles\":" << r.cycles() << ",\"issue_cycles\":" << r.issue_cycles
     << ",\"stall_cycles\":" << r.stall_cycles
     << ",\"taken_branches\":" << r.taken_branches
     << ",\"cpi\":" << num(r.cpi()) << ",\"icpi\":" << num(r.icpi())
     << ",\"mcpi\":" << num(r.mcpi()) << ',';
  write_cache(os, "icache", r.icache);
  os << ',';
  write_cache(os, "dcache", r.dcache_combined);
  os << ',';
  write_cache(os, "bcache", r.bcache);
  os << '}';
}

void write_side(std::ostream& os, const char* name,
                const SideMeasurement& m) {
  os << '"' << name << "\":{\"config\":\"" << json_escape(m.config_name)
     << "\",\"instructions\":" << m.instructions
     << ",\"critical_instructions\":" << m.critical_instructions
     << ",\"tp_us\":" << num(m.tp_us)
     << ",\"critical_us\":" << num(m.critical_us)
     << ",\"static_hot_words\":" << m.static_hot_words
     << ",\"static_total_words\":" << m.static_total_words << ',';
  write_run(os, "cold", m.cold);
  os << ',';
  write_run(os, "steady", m.steady);
  os << '}';
}

}  // namespace

void write_sweep_json(std::ostream& os, const std::string& bench,
                      const SweepRunner& runner,
                      const std::vector<SweepJob>& jobs,
                      const std::vector<SweepOutcome>& outcomes) {
  os << "{\"schema\":\"" << section_schema("sweep", 1)
     << "\",\"bench\":\"" << json_escape(bench)
     << "\",\"threads\":" << runner.thread_count()
     << ",\"workers_used\":" << runner.workers_used()
     << ",\"captures\":" << runner.captures_performed() << ",\"configs\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    if (i != 0) os << ',';
    os << "{\"label\":\"" << json_escape(o.label) << "\",\"stack\":\""
       << (i < jobs.size() && jobs[i].kind == net::StackKind::kRpc ? "rpc"
                                                                   : "tcpip")
       << "\",\"trace_reused\":" << (o.trace_reused ? "true" : "false")
       << ",\"wall_ms\":{\"capture\":" << num(o.capture_wall_ms)
       << ",\"measure\":" << num(o.measure_wall_ms)
       << "},\"te_us\":" << num(o.result.te_us)
       << ",\"te_adjusted_us\":" << num(o.result.te_adjusted) << ',';
    write_side(os, "client", o.result.client);
    os << ',';
    write_side(os, "server", o.result.server);
    if (!o.te_samples.empty()) {
      os << ",\"te_samples\":[";
      for (std::size_t k = 0; k < o.te_samples.size(); ++k) {
        if (k != 0) os << ',';
        os << num(o.te_samples[k]);
      }
      os << ']';
    }
    if (!o.extra.empty()) {
      os << ",\"extra\":{";
      bool first = true;
      for (const auto& [k, v] : o.extra) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(k) << "\":" << num(v);
      }
      os << '}';
    }
    if (const Json::Object* sections = o.sections().as_object()) {
      for (const auto& [k, v] : *sections) {
        os << ",\"" << json_escape(k) << "\":";
        v.dump(os);
      }
    }
    os << '}';
  }
  os << "]}\n";
}

std::string write_sweep_metrics(const std::string& bench,
                                const SweepRunner& runner,
                                const std::vector<SweepJob>& jobs,
                                const std::vector<SweepOutcome>& outcomes,
                                const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/" + bench + ".json";
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open metrics file: " + path);
  }
  write_sweep_json(f, bench, runner, jobs, outcomes);
  return path;
}

}  // namespace l96::harness
