#pragma once
// efficsense::run — the durable sweep-execution layer. DurableSweeper wraps
// the core::Sweeper semantics (evaluate every point of a DesignSpace,
// optionally across a thread pool, deterministically) with:
//
//  * journaled checkpoints — every finished point appends one fsync'd,
//    checksummed record to a JSONL journal, so an interrupted sweep resumes
//    at the first missing point instead of restarting;
//  * sharding — EFFICSENSE_SHARD=i/N (or RunOptions::shard) restricts the
//    sweep to the round-robin slice {p : p % N == i} of the enumeration,
//    and merge_journals() recombines N shard journals into a result set
//    bitwise-identical to an unsharded run;
//  * fault isolation — a per-point wall-clock timeout and a bounded retry;
//    a point that still fails is quarantined (recorded in the journal with
//    its error) and the sweep continues, so one pathological point cannot
//    kill a study;
//  * live telemetry — each freshly evaluated point appends a provenance
//    event next to its record (queue→eval→journal timestamps, stage split,
//    retry cause), and a heartbeat thread keeps an atomically-replaced
//    status.json current (see run/telemetry.hpp and the EFFICSENSE_STATUS
//    env knobs). Telemetry is strictly additive: result records and the
//    RESULT_DIGEST are byte-identical with it on or off.
//
// settle_point (evaluate, retry or quarantine, build the record and the
// event) and open_journal (validate and resume, or create) are the one
// implementation of each step; the fleet Worker (run/worker.hpp) uses them
// too.
//
// Obs counters: run/points_resumed, run/points_evaluated,
// run/points_retried, run/points_quarantined, run/journal_lines_dropped.
// Obs histogram: run/point_eval_s (whole-point evaluation latency). With a
// pool, the run sets the pool/* gauges over its own window
// (core::record_pool_gauges); each point's evaluation fans out over that
// pool as executors free up (core::Evaluator).

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluator.hpp"
#include "core/sweep.hpp"
#include "run/journal.hpp"
#include "util/thread_pool.hpp"

namespace efficsense::run {

struct RunOptions {
  /// JSONL journal file. Empty = no durability (evaluate everything; the
  /// shard/timeout/retry machinery still applies).
  std::string journal_path;
  /// Slice of the enumeration this process owns (see shard_from_env()).
  Shard shard;
  /// Wall-clock budget per point evaluation; 0 disables the timeout and
  /// evaluates inline. With a timeout, each evaluation runs on its own
  /// thread; a timed-out evaluation is abandoned (detached) and must not be
  /// assumed to stop — the evaluator has to outlive the process's sweeps.
  double point_timeout_s = 0.0;
  /// Evaluation attempts per point before quarantining (>= 1). Timeouts
  /// quarantine immediately: retrying a hung point would just burn another
  /// timeout window.
  std::uint32_t max_attempts = 3;
  /// Caller-side configuration digest (e.g. Evaluator::config_digest());
  /// mixed with the base design and space digests into the journal header.
  std::uint64_t config_digest = 0;
  /// status.json heartbeat path. Empty = resolve via
  /// run::status_path_for(journal_path) (EFFICSENSE_STATUS override,
  /// default "<journal>.status.json", "off" disables); journal-less runs
  /// never write one.
  std::string status_path;
  /// Heartbeat cadence in seconds; <= 0 = EFFICSENSE_STATUS_INTERVAL
  /// (default 5).
  double status_interval_s = 0.0;
  /// Append per-point provenance events alongside journal records.
  bool record_events = true;
};

struct QuarantinedPoint {
  std::uint64_t index = 0;
  core::PointValues point;
  std::string error;
  std::uint32_t attempts = 0;
};

struct RunOutcome {
  /// Owned points in enumeration order; quarantined points are omitted.
  std::vector<core::SweepResult> results;
  std::vector<QuarantinedPoint> quarantined;
  std::uint64_t points_resumed = 0;    ///< adopted from the journal
  std::uint64_t points_evaluated = 0;  ///< freshly evaluated this run
  std::uint64_t points_retried = 0;    ///< extra attempts beyond the first
};

class DurableSweeper {
 public:
  using EvalFn = std::function<core::EvalMetrics(const power::DesignParams&)>;
  using Progress = std::function<void(std::size_t, std::size_t)>;

  /// Evaluate through a core::Evaluator; options.config_digest defaults to
  /// the evaluator's config_digest() when left 0.
  DurableSweeper(const core::Evaluator* evaluator, RunOptions options);
  /// Evaluate through an arbitrary function (tests, custom backends). The
  /// caller owns the digest discipline via options.config_digest.
  DurableSweeper(EvalFn eval, RunOptions options);

  /// Evaluate the owned slice of the grid, resuming from the journal when
  /// one is configured and present. Throws Error when an existing journal
  /// was written under a different configuration (refuses to mix results).
  /// `progress` follows the Sweeper contract: (done, owned_total), strictly
  /// increasing, including points adopted from the journal.
  RunOutcome run(const power::DesignParams& base,
                 const core::DesignSpace& space, ThreadPool* pool = nullptr,
                 const Progress& progress = {}) const;

  const RunOptions& options() const { return options_; }

 private:
  EvalFn eval_;
  RunOptions options_;
};

/// Seconds elapsed since `start` on the steady clock: the run clock every
/// provenance event is stamped on.
double seconds_since(std::chrono::steady_clock::time_point start);

/// One point settled: evaluated, then recorded as ok or quarantined.
struct SettledPoint {
  /// The point's coordinates and design; its metrics when ok().
  core::SweepResult result;
  JournalRecord record;
  /// The point's provenance event; t_journal_s is left to the caller, who
  /// stamps it once the record is appended.
  PointEvent event;

  bool ok() const { return record.status == PointStatus::Ok; }
};

/// Settle point `index` of `space` over `base` — the one settlement step
/// DurableSweeper and the fleet Worker share. Evaluates through `eval`
/// (inline, or on its own thread under a `timeout_s` > 0 wall-clock budget),
/// retries failures up to `max_attempts` in all (a timeout quarantines at
/// once), and builds the journal record and the provenance event, its stage
/// split taken from kEvalStages. Counts run/points_evaluated|retried|
/// quarantined and observes run/point_eval_s.
SettledPoint settle_point(const DurableSweeper::EvalFn& eval,
                          const power::DesignParams& base,
                          const core::DesignSpace& space, std::uint64_t index,
                          std::uint32_t max_attempts, double timeout_s,
                          std::chrono::steady_clock::time_point run_start,
                          double queued_at_s);

/// A journal opened for append, with the records it already holds.
struct OpenedJournal {
  /// Validated records, file order, the first record per index kept.
  std::vector<JournalRecord> records;
  JournalWriter writer;
};

/// Open the journal at `path` for append under `header`, resuming an
/// existing one (its corrupt tail truncated) or creating a fresh one.
/// Throws Error when an existing journal's header is incompatible or names
/// another shard, or a record lies outside the shard or carries a point
/// hash `space` disagrees with: results are never mixed across
/// configurations.
OpenedJournal open_journal(const std::string& path, const JournalHeader& header,
                           const core::DesignSpace& space);

/// The header a DurableSweeper writes for (base, space) — exposed so tests
/// and merge tooling can reason about compatibility.
JournalHeader make_header(const RunOptions& options,
                          const power::DesignParams& base,
                          const core::DesignSpace& space);

/// Combine shard journals into one complete result set. All journals must
/// carry compatible headers (same config/space digests and point count),
/// every point of the grid must be covered exactly once (conflicting
/// duplicate records throw), and the merged results re-serialize
/// bitwise-identically to an unsharded run's. When `out_path` is non-empty
/// the merged journal (shard 0/1, records in enumeration order) is written
/// there. Quarantined records are carried through, not re-evaluated.
RunOutcome merge_journals(const std::vector<std::string>& paths,
                          const power::DesignParams& base,
                          const std::string& out_path = "");

}  // namespace efficsense::run
