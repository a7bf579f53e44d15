#include "run/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/log.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "run/telemetry.hpp"
#include "util/error.hpp"

namespace fs = std::filesystem;

namespace efficsense::run {

namespace {

/// Heartbeat beacon: a background thread rewrites the worker's heartbeat
/// file every `interval_s` from a mutex-guarded snapshot. Destruction stops
/// the thread — which is exactly what makes lease expiry work: when the
/// worker dies (SIGKILL, or an escaping exception unwinding this object),
/// the beacon goes stale and the coordinator reclaims the lease.
class HeartbeatBeacon {
 public:
  HeartbeatBeacon(std::string path, double interval_s, WorkerHeartbeat seed)
      : path_(std::move(path)), hb_(std::move(seed)) {
    write_now();
    thread_ = std::thread([this, interval_s] {
      std::unique_lock lock(mutex_);
      while (!cv_.wait_for(lock, std::chrono::duration<double>(interval_s),
                           [this] { return stop_; })) {
        lock.unlock();
        write_now();
        lock.lock();
      }
    });
  }

  ~HeartbeatBeacon() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void update(std::uint64_t lease_id, std::uint32_t lease_version,
              std::uint64_t next, std::uint64_t committed, bool idle) {
    std::lock_guard lock(mutex_);
    hb_.lease_id = lease_id;
    hb_.lease_version = lease_version;
    hb_.next = next;
    hb_.committed = committed;
    hb_.idle = idle;
  }

  void write_now() {
    WorkerHeartbeat snap;
    {
      std::lock_guard lock(mutex_);
      snap = hb_;
    }
    snap.updated_unix_s = obs::unix_now_s();
    try {
      write_sealed_file(path_, heartbeat_to_line(snap));
    } catch (const std::exception& e) {
      // A vanished spool is the coordinator's way of saying goodbye; the
      // main loop notices separately. Never kill an evaluation over it.
      EFFICSENSE_LOG_WARN("heartbeat write failed",
                          {{"path", path_}, {"error", e.what()}});
    }
  }

 private:
  std::string path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  WorkerHeartbeat hb_;
  std::thread thread_;
};

}  // namespace

Worker::Worker(DurableSweeper::EvalFn eval, const power::DesignParams& base,
               const core::DesignSpace& space, WorkerOptions options)
    : eval_(std::move(eval)),
      base_(base),
      space_(space),
      options_(std::move(options)) {
  EFF_REQUIRE(static_cast<bool>(eval_), "worker needs an evaluation function");
  EFF_REQUIRE(!options_.spool_dir.empty(), "worker needs a spool dir");
  if (options_.name.empty()) {
    options_.name = "w" + std::to_string(::getpid());
  }
  EFF_REQUIRE(options_.name.find('/') == std::string::npos &&
                  options_.name.find("..") == std::string::npos,
              "worker name must be a plain file stem: " + options_.name);
}

WorkerOutcome Worker::run() {
  EFFICSENSE_SPAN("run/worker");
  const auto paths = spool_paths(options_.spool_dir);
  const auto sleep_poll = [&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.poll_interval_s));
  };

  // Wait for the coordinator's manifest, then prove we run its scenario.
  std::optional<FleetManifest> manifest;
  const auto wait_start = std::chrono::steady_clock::now();
  while (true) {
    if (const auto line = read_sealed_file(paths.manifest)) {
      manifest = parse_manifest(*line);
      if (manifest) break;
    }
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wait_start)
                              .count();
    EFF_REQUIRE(waited <= options_.manifest_timeout_s,
                "no fleet manifest appeared in " + paths.manifest + " after " +
                    std::to_string(options_.manifest_timeout_s) + " s");
    sleep_poll();
  }

  RunOptions header_options;
  header_options.config_digest = options_.config_digest;
  const JournalHeader header = make_header(header_options, base_, space_);
  EFF_REQUIRE(header.compatible_with(manifest->header),
              "fleet manifest " + paths.manifest +
                  " pins a different scenario (config/space digest or point "
                  "count); refusing to contribute");
  const std::uint64_t total = header.total_points;
  const double hb_interval = std::max(0.05, manifest->lease_ttl_s / 4.0);

  // Own journal: resume committed work (a restarted worker re-granted the
  // same range skips straight through it), or start fresh.
  auto journal =
      open_journal(paths.journal_path(options_.name), header, space_);
  std::vector<char> mine(total, 0);
  for (const auto& rec : journal.records) mine[rec.index] = 1;
  std::uint64_t committed = journal.records.size();

  WorkerHeartbeat seed;
  seed.worker = options_.name;
  seed.committed = committed;
  HeartbeatBeacon beacon(paths.heartbeat_path(options_.name), hb_interval,
                         seed);

  const auto run_start = std::chrono::steady_clock::now();
  WorkerOutcome outcome;
  std::uint64_t completed_lease_id = 0;

  const auto read_my_lease = [&]() -> std::optional<Lease> {
    const auto line = read_sealed_file(paths.lease_path(options_.name));
    if (!line) return std::nullopt;
    auto lease = parse_lease(*line);
    if (!lease || lease->worker != options_.name || lease->end > total ||
        lease->begin > lease->end) {
      return std::nullopt;
    }
    return lease;
  };

  const auto coordinator_gone = [&] {
    if (!fs::exists(paths.manifest)) return true;  // spool was reset
    const auto status = read_status_file(paths.coordinator_status);
    return status && status_is_stale(*status, obs::unix_now_s());
  };

  while (true) {
    if (fs::exists(paths.done)) break;
    auto lease = read_my_lease();
    if (!lease || lease->id == completed_lease_id) {
      if (coordinator_gone()) {
        EFFICSENSE_LOG_WARN("coordinator went away; worker exiting",
                            {{"worker", options_.name}});
        break;
      }
      sleep_poll();
      continue;
    }

    // Serve the lease in order, re-reading it before every point so a
    // steal-shrink or revocation is honored within one in-flight point.
    const double queued_at_s = seconds_since(run_start);
    std::uint64_t idx = lease->begin;
    while (true) {
      const auto current = read_my_lease();
      if (!current) {
        // Revoked (expiry raced a slow heartbeat) — drop the rest.
        beacon.update(0, 0, idx, committed, /*idle=*/true);
        break;
      }
      if (current->id != lease->id) {
        lease = current;  // brand-new lease; restart at its base
        idx = lease->begin;
      } else {
        lease->end = current->end;  // stolen-from: honor the shrink
        lease->version = current->version;
      }
      if (idx < lease->begin) idx = lease->begin;
      if (idx >= lease->end) {
        completed_lease_id = lease->id;
        ++outcome.leases_completed;
        beacon.update(lease->id, lease->version, idx, committed,
                      /*idle=*/true);
        break;
      }
      beacon.update(lease->id, lease->version, idx, committed,
                    /*idle=*/false);
      if (mine[idx]) {
        ++outcome.points_skipped;
        ++idx;
        continue;
      }
      // No per-point timeout: a hung evaluation is solved by lease expiry.
      auto point = settle_point(eval_, base_, space_, idx,
                                options_.max_attempts, /*timeout_s=*/0.0,
                                run_start, queued_at_s);
      if (point.ok()) {
        ++outcome.points_evaluated;
      } else {
        ++outcome.points_quarantined;
      }
      journal.writer.append(point.record);
      if (options_.record_events) {
        point.event.t_journal_s = seconds_since(run_start);
        journal.writer.append_event(point.event);
      }
      mine[idx] = 1;
      ++committed;
      ++idx;
    }
  }

  journal.writer.flush();
  beacon.update(0, 0, 0, committed, /*idle=*/true);
  beacon.write_now();
  EFFICSENSE_LOG_INFO("worker done",
                      {{"worker", options_.name},
                       {"evaluated", obs::logv(outcome.points_evaluated)},
                       {"skipped", obs::logv(outcome.points_skipped)},
                       {"leases", obs::logv(outcome.leases_completed)}});
  return outcome;
}

}  // namespace efficsense::run
