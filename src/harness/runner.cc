#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace l96::harness {

unsigned resolve_workers(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(2u, std::thread::hardware_concurrency());
}

std::size_t run_indexed_jobs(std::size_t n, unsigned threads,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return 0;
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  const unsigned n_workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_workers(threads), n));
  std::vector<char> worked(n_workers, 0);

  auto worker = [&](unsigned wi) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      worked[wi] = 1;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(n_workers);
  for (unsigned wi = 0; wi < n_workers; ++wi) pool.emplace_back(worker, wi);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return static_cast<std::size_t>(
      std::count(worked.begin(), worked.end(), 1));
}

namespace {

/// Write the section to common.out_path when set; returns the path used.
std::string write_out(const RunnerSpec& common, const Json& section) {
  if (common.out_path.empty()) return {};
  const std::filesystem::path path(common.out_path);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("run: cannot open output path " +
                             common.out_path);
  }
  f << section.dump() << "\n";
  return common.out_path;
}

std::string schema_of(const Json& section) {
  const Json* schema = section.find("schema");
  return schema != nullptr && schema->as_string() != nullptr
             ? *schema->as_string()
             : std::string{};
}

/// One independent pool job per row, results stored by row index into
/// `o.*results`, then the family's section.
template <typename Spec, typename Result, typename RunRow, typename Section>
Outcome run_rows(const Spec& spec, std::vector<Result> Outcome::*results,
                 RunRow run_row, Section section) {
  Outcome o;
  std::vector<Result>& out = o.*results;
  out.resize(spec.rows.size());
  o.workers_used =
      run_indexed_jobs(spec.rows.size(), spec.common.workers,
                       [&](std::size_t i) { out[i] = run_row(spec.rows[i]); });
  emit(o, section(out), spec.common);
  return o;
}

}  // namespace

void emit(Outcome& o, Json section, const RunnerSpec& common) {
  o.section = std::move(section);
  o.schema = schema_of(o.section);
  o.out_path = write_out(common, o.section);
}

Outcome run(const RecoveryRunSpec& spec) {
  return run_rows(
      spec, &Outcome::recovery,
      [&](const RecoverySpec& row) { return run_recovery(row, spec.costs); },
      [&](const auto& rows) { return recovery_json(spec.costs, rows); });
}

Outcome run(const LbRunSpec& spec) {
  return run_rows(
      spec, &Outcome::lb,
      [&](const LbSpec& row) { return run_lb(row, spec.costs); },
      [&](const auto& rows) { return lb_json(spec.costs, rows); });
}

Outcome run(const SoakRunSpec& spec) {
  Outcome o = run_rows(
      spec, &Outcome::soak, [](const SoakSpec& row) { return run_soak(row); },
      [&](const auto& rows) { return soak_json(spec.rows, rows); });
  for (const SoakReport& r : o.soak) o.ok = o.ok && r.ok();
  return o;
}

Json soak_json(const std::vector<SoakSpec>& specs,
               const std::vector<SoakReport>& reports) {
  Json section = emit_section("soak", 1);
  Json rows = Json::array();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SoakReport& r = reports[i];
    Json row = Json::object();
    if (i < specs.size()) {
      const SoakSpec& s = specs[i];
      row.set("kind", s.kind == net::StackKind::kTcpIp ? "tcpip" : "rpc")
          .set("roundtrips_target", s.roundtrips)
          .set("msg_bytes", static_cast<std::uint64_t>(s.msg_bytes))
          .set("chaos", s.chaos);
    }
    row.set("ok", r.ok())
        .set("completed", r.completed)
        .set("roundtrips", r.roundtrips)
        .set("virtual_us", r.virtual_us)
        .set("mean_roundtrip_us", r.mean_roundtrip_us)
        .set("integrity_failures", r.integrity_failures)
        .set("failed_calls", r.failed_calls)
        .set("pending_events", static_cast<std::uint64_t>(r.pending_events))
        .set("live_connections",
             static_cast<std::uint64_t>(r.live_connections))
        .set("busy_channels", static_cast<std::uint64_t>(r.busy_channels))
        .set("reassemblies_pending",
             static_cast<std::uint64_t>(r.reassemblies_pending))
        .set("conserved", r.conserved)
        .set("faults", Json::object()
                           .set("drops", r.faults.drops)
                           .set("corrupts", r.faults.corrupts)
                           .set("duplicates", r.faults.duplicates)
                           .set("reorders", r.faults.reorders)
                           .set("delays", r.faults.delays))
        .set("tcp_retransmits", r.tcp_retransmits)
        .set("tcp_bad_checksums", r.tcp_bad_checksums)
        .set("chan_retransmits", r.chan_retransmits)
        .set("blast_nacks", r.blast_nacks)
        .set("blast_bad_frames", r.blast_bad_frames)
        .set("fault_log_hash", r.fault_log_hash)
        .set("reconnects", r.reconnects)
        .set("blackout_drops", r.blackout_drops)
        .set("frames_to_dead", r.frames_to_dead)
        .set("purged_events", static_cast<std::uint64_t>(r.purged_events))
        .set("server_incarnation",
             static_cast<std::uint64_t>(r.server_incarnation))
        .set("summary", r.summary());
    rows.push_back(std::move(row));
  }
  section.set("rows", std::move(rows));
  return section;
}

}  // namespace l96::harness
