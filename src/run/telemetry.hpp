#pragma once
// Live run telemetry for the durable sweep runtime: a shared progress state
// the DurableSweeper updates as points settle (committed count, GVT-style
// contiguous frontier, throughput EWMA), a heartbeat thread that serializes
// it — together with an obs::MetricsSnapshot of the stage histograms — into
// an atomically-replaced status.json every few seconds, and the parse /
// staleness helpers the sweep_status tool reads it back with.
//
// status.json is crash-honest by construction: every write goes through
// util::atomic_write_file, so a SIGKILL at any instant leaves a complete
// snapshot at most one interval old, and a reader can tell "the run died"
// (stale heartbeat, complete=false) from "the run finished" (complete=true)
// without talking to the process.
//
// Env knobs: EFFICSENSE_STATUS overrides the status path (default
// "<journal>.status.json"; "off"/"none"/"0" disables), and
// EFFICSENSE_STATUS_INTERVAL sets the heartbeat cadence in seconds
// (default 5, floor 0.05).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/snapshot.hpp"
#include "run/journal.hpp"

namespace efficsense::run {

/// One status.json heartbeat payload.
struct StatusSnapshot {
  std::uint32_t version = 1;
  double updated_unix_s = 0.0;  ///< wall clock at write time
  double interval_s = 0.0;      ///< configured heartbeat cadence
  std::string journal_path;
  std::string shard;                ///< "i/N"
  std::uint64_t total_points = 0;   ///< whole (unsharded) grid
  std::uint64_t owned = 0;          ///< points this shard owns
  std::uint64_t committed = 0;      ///< owned points durably journaled
  std::uint64_t frontier = 0;       ///< contiguous committed prefix (owned order)
  std::uint64_t resumed = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t retried = 0;
  bool complete = false;  ///< the sweep finished and wrote its final status
  double elapsed_s = 0.0;
  double throughput_pps = 0.0;       ///< evaluated-this-run / elapsed
  double throughput_ewma_pps = 0.0;  ///< time-weighted EWMA of settle rate
  double eta_s = 0.0;                ///< remaining / throughput (0 = unknown)
  double rss_bytes = 0.0;

  struct Stage {
    std::string name;  ///< "block_sim" | "decode" | "detect" | "point"
    obs::HistogramStats stats;
  };
  std::vector<Stage> stages;
};

std::string status_to_json(const StatusSnapshot& s);
std::optional<StatusSnapshot> parse_status(const std::string& json);
/// read_file + parse_status; nullopt when missing or unparseable.
std::optional<StatusSnapshot> read_status_file(const std::string& path);

/// A heartbeat is stale when the run never declared completion and the
/// snapshot's age at `now_unix_s` exceeds three write intervals plus one
/// second of scheduling slack — the writer died without finishing.
bool status_is_stale(const StatusSnapshot& s, double now_unix_s);

/// Resolve the status path for a journal: EFFICSENSE_STATUS overrides
/// (unset/empty = "<journal>.status.json"; "off"/"none"/"0" = "" meaning
/// disabled). An empty journal path always resolves to "".
std::string status_path_for(const std::string& journal_path);
/// EFFICSENSE_STATUS_INTERVAL seconds (default 5.0, clamped to >= 0.05).
double status_interval_s_from_env();

/// Shared progress state: the sweeper reports settled points, the heartbeat
/// snapshots. All methods are thread-safe.
class TelemetryState {
 public:
  void configure(const JournalHeader& header, std::uint64_t owned,
                 std::string journal_path);
  /// Owned point at position `k` of the owned enumeration settled (its
  /// record is durably in the journal, or was adopted from it on resume).
  void on_settled(std::uint64_t k, bool resumed, bool quarantined,
                  std::uint32_t attempts);
  void mark_complete();

  std::uint64_t committed() const;
  std::uint64_t frontier() const;

  /// Build the heartbeat payload (captures an obs::MetricsSnapshot for the
  /// stage percentiles and RSS).
  StatusSnapshot snapshot(double interval_s) const;

 private:
  mutable std::mutex mutex_;
  JournalHeader header_;
  std::string journal_path_;
  std::uint64_t owned_ = 0;
  std::vector<char> settled_;
  std::uint64_t committed_ = 0;
  std::uint64_t frontier_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t evaluated_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t retried_ = 0;
  bool complete_ = false;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  /// Exponentially weighted count of evaluated settlements (time constant
  /// kEwmaTau_s), as of ewma_t_s_ seconds after start_.
  double ewma_points_ = 0.0;
  double ewma_t_s_ = 0.0;
};

/// Background heartbeat: writes `path` atomically every `interval_s`
/// seconds (<= 0 = status_interval_s_from_env()), once immediately on
/// construction and once more from stop()/the destructor — so the file
/// exists as soon as the sweep starts and ends on a complete=true (or the
/// truth: a stale, incomplete one).
class StatusWriter {
 public:
  StatusWriter(std::string path, double interval_s,
               const TelemetryState* state);
  ~StatusWriter();

  StatusWriter(const StatusWriter&) = delete;
  StatusWriter& operator=(const StatusWriter&) = delete;

  /// Final write + join the heartbeat thread. Idempotent.
  void stop();
  /// One immediate write (also used by stop and the timer thread).
  void write_now() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  double interval_s_;
  const TelemetryState* state_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace efficsense::run
