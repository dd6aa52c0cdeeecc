// Unified harness runner API: one spec shape, one entry point, one worker
// pool.
//
// Every run is described by a *RunSpec struct — a shared RunnerSpec
// (label, workers, output path: defined once, here) plus the family's
// rows — and executed by an overload of
//
//     Outcome run(const <Family>RunSpec& spec);
//
// which runs the rows on the shared deterministic worker pool
// (run_indexed_jobs), assembles the family's schema-versioned JSON
// section, optionally writes it to spec.common.out_path, and returns the
// typed results.  Benches, tools and tests all run grids through these
// overloads; there are no per-family runner classes.
//
// Determinism contract (all families): results are stored by row index and
// are byte-identical for any worker count; worker threads only decide who
// executes which independent simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/json.h"
#include "harness/lb.h"
#include "harness/recovery.h"
#include "harness/shard.h"
#include "harness/soak.h"

namespace l96::harness {

/// Worker-count resolution shared by every runner: 0 picks the hardware
/// concurrency, floored at 2 so the concurrent path is always exercised.
unsigned resolve_workers(unsigned requested);

/// Run `fn(0..n)` on min(resolve_workers(threads), n) worker threads with
/// a shared atomic job counter.  Returns the number of workers that
/// executed at least one job; rethrows the first job exception after the
/// pool joins.
std::size_t run_indexed_jobs(std::size_t n, unsigned threads,
                             const std::function<void(std::size_t)>& fn);

/// Fields every run shares, defined once.  run() reads workers and
/// out_path; label only names the run for its caller.
struct RunnerSpec {
  std::string label;
  unsigned workers = 0;  ///< 0 = hardware concurrency, floored at 2
  /// When non-empty, run() writes the emitted section there (directories
  /// are created) and records the path in Outcome::out_path.
  std::string out_path;
};

/// Fleet rows of any core count; a single-machine row is `cores = 1`.
struct ShardRunSpec {
  RunnerSpec common;
  std::vector<ShardSpec> rows;
  BurstCostTable costs;
};

struct RecoveryRunSpec {
  RunnerSpec common;
  std::vector<RecoverySpec> rows;
  BurstCostTable costs;
};

struct LbRunSpec {
  RunnerSpec common;
  std::vector<LbSpec> rows;
  BurstCostTable costs;
};

struct SoakRunSpec {
  RunnerSpec common;
  std::vector<SoakSpec> rows;
};

/// What every run() overload returns: the family's typed results (only
/// the matching vector is populated) plus the uniform envelope.
struct Outcome {
  std::string schema;          ///< "l96.<name>.vN" of the emitted section
  Json section = Json::object();  ///< the emitted section
  bool ok = true;              ///< soak: all reports ok(); others: true
  std::size_t workers_used = 0;
  std::string out_path;        ///< where the section was written ("" = not)

  std::vector<ShardResult> shard;
  std::vector<RecoveryResult> recovery;
  std::vector<LbResult> lb;
  std::vector<SoakReport> soak;
};

/// Flattens the grid to (row, core) jobs, so one wide row spreads over the
/// whole pool (harness/shard.cc).
Outcome run(const ShardRunSpec& spec);
Outcome run(const RecoveryRunSpec& spec);
Outcome run(const LbRunSpec& spec);
Outcome run(const SoakRunSpec& spec);

/// Store an emitted section (and its schema) in `o`, and write it to
/// common.out_path when set: the tail every run() overload shares.
void emit(Outcome& o, Json section, const RunnerSpec& common);

/// The soak engine as a pure function of the spec.
SoakReport run_soak(const SoakSpec& spec);

/// The `l96.soak.v1` section; the other families keep their own emitters
/// (shard_json / recovery_json / lb_json).
Json soak_json(const std::vector<SoakSpec>& specs,
               const std::vector<SoakReport>& reports);

}  // namespace l96::harness
