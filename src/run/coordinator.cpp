#include "run/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "core/sweep.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "run/telemetry.hpp"
#include "util/error.hpp"

#include <filesystem>

namespace fs = std::filesystem;

namespace efficsense::run {

namespace {

/// An unleased range awaiting a worker; `reassigned` marks ranges recovered
/// from an expired lease so the re-grant can be counted.
struct PendingRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool reassigned = false;

  std::uint64_t size() const { return end - begin; }
};

struct WorkerView {
  WorkerHeartbeat hb;
};

}  // namespace

Coordinator::Coordinator(power::DesignParams base, core::DesignSpace space,
                         CoordinatorOptions options)
    : base_(std::move(base)),
      space_(std::move(space)),
      options_(std::move(options)) {
  EFF_REQUIRE(!options_.spool_dir.empty(), "coordinator needs a spool dir");
  EFF_REQUIRE(space_.size() > 0, "coordinator needs a non-empty design space");
}

void Coordinator::reset_spool(const std::string& spool_dir) {
  const auto paths = spool_paths(spool_dir);
  std::error_code ec;
  fs::create_directories(paths.leases_dir, ec);
  fs::create_directories(paths.workers_dir, ec);
  fs::remove(paths.done, ec);
  fs::remove(paths.manifest, ec);
  for (const auto& entry : fs::directory_iterator(paths.leases_dir, ec)) {
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
  }
}

CoordinatorOutcome Coordinator::run(const DurableSweeper::Progress& progress) {
  EFFICSENSE_SPAN("run/coordinator");
  const auto paths = spool_paths(options_.spool_dir);
  const double ttl = options_.lease_ttl_s > 0.0 ? options_.lease_ttl_s
                                                : lease_ttl_s_from_env();
  const std::uint64_t min_lease = std::max<std::uint64_t>(
      1, options_.min_lease_points);

  RunOptions header_options;
  header_options.config_digest = options_.config_digest;
  const JournalHeader header = make_header(header_options, base_, space_);
  const std::uint64_t total = header.total_points;

  reset_spool(options_.spool_dir);
  FleetManifest manifest;
  manifest.header = header;
  manifest.lease_ttl_s = ttl;
  write_sealed_file(paths.manifest, manifest_to_line(manifest));

  TelemetryState telemetry;
  telemetry.configure(header, total, paths.merged);
  StatusWriter status(paths.coordinator_status, options_.status_interval_s,
                      &telemetry);

  auto& granted_counter = obs::counter("run/leases_granted");
  auto& stolen_counter = obs::counter("run/leases_stolen");
  auto& expired_counter = obs::counter("run/leases_expired");
  auto& reassigned_counter = obs::counter("run/leases_reassigned");

  FleetStats stats;
  std::vector<char> settled(total, 0);
  std::uint64_t settled_count = 0;
  // Records already folded in, per journal path — journals are append-only,
  // so each scan picks up where the previous one stopped.
  std::map<std::string, std::size_t> scanned;

  const auto scan_journals = [&](bool resumed) {
    for (const auto& path : discover_worker_journals(options_.spool_dir)) {
      const auto contents = read_journal(path);
      if (!contents) continue;  // header not yet durable; next poll
      EFF_REQUIRE(contents->header.compatible_with(header),
                  "worker journal " + path +
                      " was written under a different configuration; "
                      "this spool belongs to another scenario");
      auto& done_records = scanned[path];
      for (std::size_t r = done_records; r < contents->records.size(); ++r) {
        const auto& rec = contents->records[r];
        EFF_REQUIRE(rec.index < total,
                    "journal record index out of range in " + path);
        EFF_REQUIRE(
            rec.point_hash == core::hash_point(space_.point(rec.index)),
            "journal point hash does not match the design space in " + path);
        if (settled[rec.index]) {
          ++stats.duplicate_points;
          continue;
        }
        settled[rec.index] = 1;
        ++settled_count;
        telemetry.on_settled(rec.index, resumed,
                             rec.status == PointStatus::Quarantined,
                             rec.attempts);
      }
      done_records = contents->records.size();
    }
  };

  // Adopt whatever a previous fleet already committed to this spool.
  scan_journals(/*resumed=*/true);
  if (settled_count > 0) {
    EFFICSENSE_LOG_INFO("fleet resuming from spool journals",
                        {{"spool", options_.spool_dir},
                         {"resumed", obs::logv(settled_count)},
                         {"total", obs::logv(total)}});
  }

  // Pending = maximal unsettled runs, in enumeration order.
  std::deque<PendingRange> pending;
  for (std::uint64_t i = 0; i < total;) {
    if (settled[i]) {
      ++i;
      continue;
    }
    std::uint64_t j = i;
    while (j < total && !settled[j]) ++j;
    pending.push_back({i, j, false});
    i = j;
  }

  std::map<std::string, Lease> active;      // by worker name
  std::map<std::string, WorkerView> workers;  // fresh-ish heartbeats
  std::set<std::string> ever_seen;
  std::uint64_t next_lease_id = 1;

  const auto settled_from = [&](std::uint64_t begin, std::uint64_t end) {
    std::uint64_t u = begin;
    while (u < end && settled[u]) ++u;
    return u;  // first unsettled index in [begin, end), or end
  };

  std::size_t last_reported = 0;
  auto last_progress_at = std::chrono::steady_clock::now();
  std::uint64_t last_progress_count = settled_count;

  while (settled_count < total) {
    // 1. Heartbeats: register every beacon in the spool.
    {
      std::error_code ec;
      for (const auto& entry :
           fs::directory_iterator(paths.workers_dir, ec)) {
        const auto name = entry.path().filename().string();
        const std::string suffix = ".heartbeat.json";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
          continue;
        }
        const auto line = read_sealed_file(entry.path().string());
        if (!line) continue;
        const auto hb = parse_heartbeat(*line);
        if (!hb || hb->worker.empty()) continue;
        if (ever_seen.insert(hb->worker).second) {
          ++stats.workers_seen;
          EFFICSENSE_LOG_INFO("worker registered",
                              {{"worker", hb->worker},
                               {"spool", options_.spool_dir}});
        }
        workers[hb->worker] = WorkerView{*hb};
      }
    }

    // 2. Journals are the commit truth.
    scan_journals(/*resumed=*/false);

    const double now = obs::unix_now_s();
    const auto is_fresh = [&](const std::string& name) {
      const auto it = workers.find(name);
      return it != workers.end() &&
             now - it->second.hb.updated_unix_s <= ttl;
    };

    // 3. Expiry: presumed-dead workers lose their lease; the uncommitted
    // remainder goes back to the front of the queue.
    for (auto it = active.begin(); it != active.end();) {
      const auto& worker = it->first;
      const auto& lease = it->second;
      if (is_fresh(worker)) {
        ++it;
        continue;
      }
      ++stats.leases_expired;
      expired_counter.inc();
      const std::uint64_t u = settled_from(lease.begin, lease.end);
      if (u < lease.end) {
        pending.push_front({u, lease.end, true});
      }
      std::error_code ec;
      fs::remove(paths.lease_path(worker), ec);  // revoke, in case it lives
      EFFICSENSE_LOG_WARN("lease expired; reassigning remainder",
                          {{"worker", worker},
                           {"lease", obs::logv(lease.id)},
                           {"remaining", obs::logv(lease.end - u)}});
      workers.erase(worker);  // re-registers on its next heartbeat
      it = active.erase(it);
    }

    // 4. Retirement: a fully committed lease is closed.
    for (auto it = active.begin(); it != active.end();) {
      if (settled_from(it->second.begin, it->second.end) == it->second.end) {
        it = active.erase(it);
      } else {
        ++it;
      }
    }

    // 5. Grants and steals, idle workers in name order for determinism.
    std::vector<std::string> idle;
    std::size_t fresh_count = 0;
    for (const auto& [name, view] : workers) {
      if (!is_fresh(name)) continue;
      ++fresh_count;
      if (!active.count(name)) idle.push_back(name);
    }
    std::uint64_t pending_total = 0;
    for (const auto& range : pending) pending_total += range.size();

    for (const auto& worker : idle) {
      if (!pending.empty()) {
        auto& range = pending.front();
        const std::uint64_t target = std::max<std::uint64_t>(
            min_lease,
            (pending_total + 2 * fresh_count - 1) / (2 * fresh_count));
        const std::uint64_t n = std::min<std::uint64_t>(target, range.size());
        Lease lease;
        lease.id = next_lease_id++;
        lease.worker = worker;
        lease.begin = range.begin;
        lease.end = range.begin + n;
        write_sealed_file(paths.lease_path(worker), lease_to_line(lease));
        active[worker] = lease;
        ++stats.leases_granted;
        granted_counter.inc();
        if (range.reassigned) {
          ++stats.leases_reassigned;
          reassigned_counter.inc();
        }
        pending_total -= n;
        range.begin += n;
        if (range.size() == 0) pending.pop_front();
        continue;
      }

      // Work stealing: split the largest outstanding remainder. The split
      // point stays above the victim's reported `next`, so at most the one
      // in-flight point is ever evaluated twice.
      std::string victim;
      std::uint64_t victim_next = 0, victim_remainder = 0;
      for (const auto& [name, lease] : active) {
        const auto view = workers.find(name);
        std::uint64_t next = settled_from(lease.begin, lease.end);
        if (view != workers.end() &&
            view->second.hb.lease_id == lease.id) {
          next = std::max(next, view->second.hb.next);
        }
        next = std::min(next, lease.end);
        const std::uint64_t remainder = lease.end - next;
        if (remainder > victim_remainder) {
          victim = name;
          victim_next = next;
          victim_remainder = remainder;
        }
      }
      if (victim.empty() || victim_remainder < 2 * min_lease ||
          victim_remainder < 2) {
        continue;  // nothing worth splitting; stay idle
      }
      auto& lease = active[victim];
      const std::uint64_t mid = victim_next + (victim_remainder + 1) / 2;
      Lease stolen;
      stolen.id = next_lease_id++;
      stolen.worker = worker;
      stolen.begin = mid;
      stolen.end = lease.end;
      lease.end = mid;
      ++lease.version;
      write_sealed_file(paths.lease_path(victim), lease_to_line(lease));
      write_sealed_file(paths.lease_path(worker), lease_to_line(stolen));
      active[worker] = stolen;
      ++stats.leases_stolen;
      stolen_counter.inc();
      ++stats.leases_granted;
      granted_counter.inc();
      EFFICSENSE_LOG_INFO("lease split by work stealing",
                          {{"victim", victim},
                           {"thief", worker},
                           {"mid", obs::logv(mid)},
                           {"end", obs::logv(stolen.end)}});
    }

    // 6. Progress + stall watchdog.
    if (progress && settled_count > last_reported) {
      last_reported = settled_count;
      progress(settled_count, total);
    }
    if (settled_count != last_progress_count) {
      last_progress_count = settled_count;
      last_progress_at = std::chrono::steady_clock::now();
    } else if (options_.stall_timeout_s > 0.0 && fresh_count == 0) {
      const double stalled =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_progress_at)
              .count();
      EFF_REQUIRE(stalled <= options_.stall_timeout_s,
                  "fleet stalled: no live worker and no commit for " +
                      std::to_string(stalled) + " s (spool " +
                      options_.spool_dir + ")");
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.poll_interval_s));
  }

  if (progress && settled_count > last_reported) {
    progress(settled_count, total);
  }
  telemetry.mark_complete();
  status.stop();
  write_sealed_file(paths.done, "{\"type\":\"done\",\"total\":" +
                                    std::to_string(total));

  CoordinatorOutcome outcome;
  outcome.stats = stats;
  outcome.worker_journals = discover_worker_journals(options_.spool_dir);
  outcome.merged = merge_journals(outcome.worker_journals, base_, paths.merged);
  EFFICSENSE_LOG_INFO("fleet complete",
                      {{"spool", options_.spool_dir},
                       {"workers", obs::logv(stats.workers_seen)},
                       {"granted", obs::logv(stats.leases_granted)},
                       {"stolen", obs::logv(stats.leases_stolen)},
                       {"expired", obs::logv(stats.leases_expired)},
                       {"duplicates", obs::logv(stats.duplicate_points)}});
  return outcome;
}

}  // namespace efficsense::run
