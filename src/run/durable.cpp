#include "run/durable.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "run/telemetry.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"

namespace efficsense::run {

namespace {

struct AttemptOutcome {
  bool ok = false;
  bool timed_out = false;
  core::EvalMetrics metrics;
  std::string error;
};

/// One evaluation attempt. With no timeout the function runs inline; with
/// one it runs on its own thread and, past the deadline, is abandoned
/// (detached — it finishes into a shared block that outlives it and is
/// then discarded). That thread is on no pool (ThreadPool::current() is
/// null there), so the evaluation runs serially and an abandoned one never
/// touches the sweep's pool.
AttemptOutcome eval_once(const DurableSweeper::EvalFn& eval,
                         const power::DesignParams& design, double timeout_s) {
  AttemptOutcome out;
  if (timeout_s <= 0.0) {
    try {
      out.metrics = eval(design);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    core::EvalMetrics metrics;
    std::string error;
  };
  auto shared = std::make_shared<Shared>();
  std::thread worker([shared, eval, design]() {
    bool ok = false;
    core::EvalMetrics metrics;
    std::string error;
    try {
      metrics = eval(design);
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    {
      std::lock_guard lock(shared->m);
      shared->ok = ok;
      shared->metrics = std::move(metrics);
      shared->error = std::move(error);
      shared->done = true;
    }
    shared->cv.notify_all();
  });

  std::unique_lock lock(shared->m);
  const bool finished =
      shared->cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [&] { return shared->done; });
  if (finished) {
    out.ok = shared->ok;
    out.metrics = std::move(shared->metrics);
    out.error = std::move(shared->error);
    lock.unlock();
    worker.join();
    return out;
  }
  lock.unlock();
  worker.detach();
  out.timed_out = true;
  out.error = "evaluation exceeded the " + std::to_string(timeout_s) +
              " s per-point wall-clock timeout";
  return out;
}

}  // namespace

DurableSweeper::DurableSweeper(const core::Evaluator* evaluator,
                               RunOptions options)
    : options_(std::move(options)) {
  EFF_REQUIRE(evaluator != nullptr, "durable sweeper needs an evaluator");
  eval_ = [evaluator](const power::DesignParams& d) {
    return evaluator->evaluate(d);
  };
  if (options_.config_digest == 0) {
    options_.config_digest = evaluator->config_digest();
  }
}

DurableSweeper::DurableSweeper(EvalFn eval, RunOptions options)
    : eval_(std::move(eval)), options_(std::move(options)) {
  EFF_REQUIRE(static_cast<bool>(eval_),
              "durable sweeper needs an evaluation function");
}

JournalHeader make_header(const RunOptions& options,
                          const power::DesignParams& base,
                          const core::DesignSpace& space) {
  JournalHeader h;
  // The header digest covers the caller's evaluator digest plus the base
  // design the point overrides apply to; the space digest rides separately.
  std::string bytes = "run-header-v1;";
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(
        static_cast<char>((options.config_digest >> shift) & 0xFF));
  }
  bytes += base.cache_key();
  h.config_digest = fnv1a(bytes);
  h.space_digest = space.digest();
  h.total_points = space.size();
  h.shard = options.shard;
  return h;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

SettledPoint settle_point(const DurableSweeper::EvalFn& eval,
                          const power::DesignParams& base,
                          const core::DesignSpace& space, std::uint64_t index,
                          std::uint32_t max_attempts, double timeout_s,
                          std::chrono::steady_clock::time_point run_start,
                          double queued_at_s) {
  EFFICSENSE_SPAN("run/point");
  max_attempts = std::max<std::uint32_t>(1, max_attempts);
  SettledPoint out;
  out.result.point = space.point(index);
  out.result.design = core::apply_point(base, out.result.point);
  JournalRecord& rec = out.record;
  rec.index = index;
  rec.point_hash = core::hash_point(out.result.point);
  PointEvent& ev = out.event;
  ev.index = index;
  ev.t_queue_s = queued_at_s;
  ev.t_eval_start_s = seconds_since(run_start);
  // Sum deltas around the evaluation are exact single-threaded and an
  // overlap-inflated approximation under a thread pool (see PointEvent).
  double stage_start[std::size(kEvalStages)];
  for (std::size_t i = 0; i < std::size(kEvalStages); ++i) {
    stage_start[i] = obs::histogram(kEvalStages[i].histogram).sum();
  }

  bool ok = false;
  std::string error;
  std::uint32_t attempt = 1;
  for (;; ++attempt) {
    auto res = eval_once(eval, out.result.design, timeout_s);
    if (res.ok) {
      ok = true;
      out.result.metrics = std::move(res.metrics);
      break;
    }
    error = std::move(res.error);
    if (res.timed_out || attempt >= max_attempts) break;
    obs::counter("run/points_retried").inc();
    EFFICSENSE_LOG_WARN("point evaluation failed; retrying",
                        {{"index", obs::logv(index)},
                         {"attempt", obs::logv(attempt)},
                         {"error", error}});
  }

  ev.t_eval_end_s = seconds_since(run_start);
  for (std::size_t i = 0; i < std::size(kEvalStages); ++i) {
    ev.*kEvalStages[i].seconds = std::max(
        0.0, obs::histogram(kEvalStages[i].histogram).sum() - stage_start[i]);
  }
  ev.attempts = rec.attempts = attempt;
  ev.status = rec.status = ok ? PointStatus::Ok : PointStatus::Quarantined;
  ev.cause = error;  // empty on a clean first-attempt success
  obs::histogram("run/point_eval_s").observe(ev.eval_s());
  if (ok) {
    rec.payload = core::sweep_result_to_row(out.result);
    obs::counter("run/points_evaluated").inc();
  } else {
    rec.payload = std::move(error);
    obs::counter("run/points_quarantined").inc();
    EFFICSENSE_LOG_WARN("point quarantined",
                        {{"index", obs::logv(index)},
                         {"attempts", obs::logv(attempt)},
                         {"error", rec.payload}});
  }
  return out;
}

OpenedJournal open_journal(const std::string& path, const JournalHeader& header,
                           const core::DesignSpace& space) {
  auto existing = read_journal(path);
  if (!existing) return {{}, JournalWriter::create(path, header)};
  EFF_REQUIRE(existing->header.compatible_with(header) &&
                  existing->header.shard.index == header.shard.index &&
                  existing->header.shard.count == header.shard.count,
              "journal " + path +
                  " was written under a different configuration; refusing "
                  "to resume (delete it to start fresh)");
  std::vector<JournalRecord> records;
  std::vector<char> seen(header.total_points, 0);
  for (auto& rec : existing->records) {
    EFF_REQUIRE(rec.index < header.total_points && header.shard.owns(rec.index),
                "journal record outside this shard's slice; refusing to "
                "resume: " + path);
    EFF_REQUIRE(rec.point_hash == core::hash_point(space.point(rec.index)),
                "journal point hash does not match the design space; "
                "refusing to resume: " + path);
    if (seen[rec.index]) continue;  // duplicate record: first wins
    seen[rec.index] = 1;
    records.push_back(std::move(rec));
  }
  EFFICSENSE_LOG_INFO("resuming sweep from journal",
                      {{"path", path}, {"resumed", obs::logv(records.size())}});
  return {std::move(records),
          JournalWriter::resume(path, existing->valid_bytes)};
}

RunOutcome DurableSweeper::run(const power::DesignParams& base,
                               const core::DesignSpace& space,
                               ThreadPool* pool,
                               const Progress& progress) const {
  EFFICSENSE_SPAN("run/sweep");
  const std::size_t total = space.size();
  const Shard shard = options_.shard;
  const JournalHeader header = make_header(options_, base, space);

  std::vector<std::uint64_t> owned;
  owned.reserve(shard.whole() ? total : total / shard.count + 1);
  // Position of each owned point index in the owned enumeration — the
  // telemetry frontier is contiguous over these positions, not raw indices.
  std::vector<std::uint64_t> owned_pos(total, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    if (shard.owns(i)) {
      owned_pos[i] = owned.size();
      owned.push_back(i);
    }
  }

  const auto run_start = std::chrono::steady_clock::now();
  TelemetryState telemetry;
  telemetry.configure(header, owned.size(), options_.journal_path);

  RunOutcome outcome;
  std::vector<std::optional<core::SweepResult>> results(total);
  std::vector<QuarantinedPoint> quarantined;
  std::vector<char> settled(total, 0);

  // Resume: adopt every record of an existing journal.
  std::optional<JournalWriter> writer;
  if (!options_.journal_path.empty()) {
    auto journal = open_journal(options_.journal_path, header, space);
    for (const auto& rec : journal.records) {
      if (rec.status == PointStatus::Ok) {
        results[rec.index] = core::parse_sweep_row(rec.payload, base);
      } else {
        quarantined.push_back({rec.index, space.point(rec.index),
                               rec.payload, rec.attempts});
      }
      settled[rec.index] = 1;
      telemetry.on_settled(owned_pos[rec.index], /*resumed=*/true,
                           rec.status == PointStatus::Quarantined,
                           rec.attempts);
    }
    outcome.points_resumed = journal.records.size();
    writer.emplace(std::move(journal.writer));
  }
  obs::counter("run/points_resumed").inc(outcome.points_resumed);

  // Heartbeat: background status.json writer, resolved from the options /
  // environment. Journal-less runs have nothing to anchor the path to.
  std::optional<StatusWriter> status;
  {
    const std::string status_path =
        !options_.status_path.empty() && !options_.journal_path.empty()
            ? options_.status_path
            : status_path_for(options_.journal_path);
    if (!status_path.empty()) {
      status.emplace(status_path, options_.status_interval_s, &telemetry);
    }
  }

  std::vector<std::uint64_t> pending;
  pending.reserve(owned.size());
  for (const auto idx : owned) {
    if (!settled[idx]) pending.push_back(idx);
  }
  // Every pending point "enters the queue" when the work list is built —
  // evaluation order decides how long it waits there.
  const double queued_at_s = seconds_since(run_start);
  const bool record_events = writer.has_value() && options_.record_events;

  std::atomic<std::size_t> done{owned.size() - pending.size()};
  std::atomic<std::uint64_t> evaluated{0}, retried{0};
  std::mutex sink_mutex;  // guards writer, quarantined, last_reported
  std::size_t last_reported = 0;
  if (progress && outcome.points_resumed > 0) {
    last_reported = done.load();
    progress(last_reported, owned.size());
  }

  auto settle_one = [&](std::size_t k) {
    const std::uint64_t idx = pending[k];
    auto point = settle_point(eval_, base, space, idx, options_.max_attempts,
                              options_.point_timeout_s, run_start,
                              queued_at_s);
    const bool ok = point.ok();
    const std::uint32_t attempts = point.record.attempts;
    retried.fetch_add(attempts - 1, std::memory_order_relaxed);
    {
      std::lock_guard lock(sink_mutex);
      if (!ok) {
        quarantined.push_back(
            {idx, point.result.point, point.record.payload, attempts});
      }
      if (writer) {
        writer->append(point.record);
        if (record_events) {
          point.event.t_journal_s = seconds_since(run_start);
          writer->append_event(point.event);
        }
      }
    }
    if (ok) {
      results[idx] = std::move(point.result);
      evaluated.fetch_add(1, std::memory_order_relaxed);
    }
    telemetry.on_settled(owned_pos[idx], /*resumed=*/false, !ok, attempts);
    done.fetch_add(1, std::memory_order_acq_rel);
    if (progress) {
      const std::size_t snapshot = done.load(std::memory_order_acquire);
      std::lock_guard lock(sink_mutex);
      if (snapshot > last_reported) {
        last_reported = snapshot;
        progress(snapshot, owned.size());
      }
    }
  };

  const auto sweep_start = std::chrono::steady_clock::now();
  const ThreadPool::Stats pool_before =
      pool != nullptr ? pool->stats() : ThreadPool::Stats{};
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(pending.size(), settle_one);
  } else {
    for (std::size_t k = 0; k < pending.size(); ++k) settle_one(k);
  }
  if (pool != nullptr) {
    core::record_pool_gauges(*pool, pool_before, seconds_since(sweep_start));
  }

  telemetry.mark_complete();
  if (status) status->stop();  // final write carries complete=true

  outcome.points_evaluated = evaluated.load();
  outcome.points_retried = retried.load();

  for (const auto idx : owned) {
    if (results[idx]) outcome.results.push_back(std::move(*results[idx]));
  }
  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantinedPoint& a, const QuarantinedPoint& b) {
              return a.index < b.index;
            });
  outcome.quarantined = std::move(quarantined);
  return outcome;
}

RunOutcome merge_journals(const std::vector<std::string>& paths,
                          const power::DesignParams& base,
                          const std::string& out_path) {
  EFFICSENSE_SPAN("run/merge");
  EFF_REQUIRE(!paths.empty(), "merge needs at least one journal");
  std::vector<JournalContents> journals;
  journals.reserve(paths.size());
  for (const auto& p : paths) {
    auto j = read_journal(p);
    EFF_REQUIRE(j.has_value(), "missing or unreadable journal: " + p);
    journals.push_back(std::move(*j));
  }
  const JournalHeader& h0 = journals.front().header;
  for (std::size_t i = 1; i < journals.size(); ++i) {
    EFF_REQUIRE(journals[i].header.compatible_with(h0),
                "journal " + paths[i] +
                    " disagrees with " + paths.front() +
                    " on configuration; refusing to merge");
  }

  const std::uint64_t total = h0.total_points;
  std::vector<std::optional<JournalRecord>> by_index(total);
  // Which journal contributed each point — its provenance events ride along
  // into the merged journal. Duplicate records keep the journal that sorts
  // first by path, NOT the one listed first: concurrently streaming workers
  // finish in arbitrary order, and the merged bytes must not depend on who
  // finished (or was globbed) first.
  std::vector<std::size_t> canonical(journals.size());
  for (std::size_t j = 0; j < canonical.size(); ++j) canonical[j] = j;
  std::sort(canonical.begin(), canonical.end(),
            [&paths](std::size_t a, std::size_t b) {
              return paths[a] < paths[b];
            });
  std::vector<std::size_t> source(total, 0);
  for (const std::size_t j : canonical) {
    for (auto& rec : journals[j].records) {
      EFF_REQUIRE(rec.index < total, "journal record index out of range in " +
                                         paths[j]);
      if (by_index[rec.index]) {
        const auto& prev = *by_index[rec.index];
        EFF_REQUIRE(prev.status == rec.status &&
                        prev.point_hash == rec.point_hash &&
                        prev.payload == rec.payload,
                    "conflicting records for point " +
                        std::to_string(rec.index) + "; refusing to merge");
        continue;
      }
      source[rec.index] = j;
      by_index[rec.index] = std::move(rec);
    }
  }

  std::uint64_t missing = 0;
  for (const auto& slot : by_index) {
    if (!slot) ++missing;
  }
  EFF_REQUIRE(missing == 0, "merge is incomplete: " + std::to_string(missing) +
                                " of " + std::to_string(total) +
                                " points missing");

  RunOutcome out;
  out.points_resumed = total;
  for (const auto& slot : by_index) {
    const auto& rec = *slot;
    if (rec.status == PointStatus::Ok) {
      out.results.push_back(core::parse_sweep_row(rec.payload, base));
    } else {
      // The merged view has no DesignSpace to decode coordinates from;
      // the index + error are what the record preserves.
      out.quarantined.push_back({rec.index, {}, rec.payload, rec.attempts});
    }
  }

  if (!out_path.empty()) {
    // Events from the contributing journal follow their point record, in
    // journal-time order, so a merged journal reads like a single run's.
    std::vector<std::map<std::uint64_t, std::vector<const PointEvent*>>>
        events_by_journal(journals.size());
    for (std::size_t j = 0; j < journals.size(); ++j) {
      for (const auto& ev : journals[j].events) {
        if (ev.index < total) events_by_journal[j][ev.index].push_back(&ev);
      }
    }
    JournalHeader merged = h0;
    merged.shard = Shard{};
    // The merged journal is derived data — regenerable from the source
    // journals — so group commit applies regardless of EFFICSENSE_FSYNC:
    // per-record fsyncs would only slow the merge down.
    auto writer = JournalWriter::create(out_path, merged, SyncMode::Group);
    for (const auto& slot : by_index) {
      writer.append(*slot);
      auto& per_point = events_by_journal[source[slot->index]];
      const auto evs = per_point.find(slot->index);
      if (evs == per_point.end()) continue;
      std::vector<const PointEvent*> ordered = evs->second;
      std::sort(ordered.begin(), ordered.end(),
                [](const PointEvent* a, const PointEvent* b) {
                  return a->t_journal_s < b->t_journal_s;
                });
      for (const auto* ev : ordered) writer.append_event(*ev);
    }
    writer.flush();
  }
  obs::counter("run/journals_merged").inc(paths.size());
  return out;
}

}  // namespace efficsense::run
