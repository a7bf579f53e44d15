#pragma once
// The sweep journal: an append-only, per-record-checksummed JSONL file that
// makes a Study sweep durable. One header line pins the configuration
// (evaluator digest, space digest, point count, shard) and every finished
// design point appends one fsync'd record, so a SIGKILL at point 4990 of
// 5000 loses at most the in-flight point. On restart the reader validates
// records line by line, drops a truncated/corrupt tail, and refuses to
// resume a journal written under a different configuration digest.
//
// Line format (strict subset of JSON, one object per line):
//   {"type":"header","version":1,"digest":"...","space":"...","total":24,
//    "shard":"0/3","crc":"f00d..."}
//   {"type":"point","index":7,"hash":"beef...","status":"ok","attempts":1,
//    "row":"<escaped sweep CSV row>","crc":"..."}
//   {"type":"event","index":7,"status":"ok","attempts":1,"tq":0,"te0":...,
//    "te1":...,"tj":...,"sim":...,"dec":...,"det":...,"cause":"","crc":"..."}
// The crc field is FNV-1a64 over every byte of the line before `,"crc"`,
// rendered as 16 lower-case hex digits, and always the last field.
//
// Event lines are the telemetry sibling of point records: per-point
// provenance (queue→eval→journal timestamps, stage split, retry/quarantine
// cause), appended right after the point record, crc-validated the same way
// — but advisory: results never depend on them, and journals without events
// (pre-telemetry writers) read fine.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/atomic_io.hpp"

namespace efficsense::run {

inline constexpr std::uint32_t kJournalVersion = 1;

struct Shard {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool whole() const { return count <= 1; }
  /// Round-robin ownership over the point enumeration.
  bool owns(std::uint64_t point_index) const {
    return whole() || point_index % count == index;
  }
  std::string to_string() const;
};

/// Parse "i/N" (e.g. "0/3"); throws Error on malformed specs or i >= N.
Shard parse_shard(const std::string& spec);
/// Shard from EFFICSENSE_SHARD, {0,1} when unset/empty.
Shard shard_from_env();

struct JournalHeader {
  std::uint32_t version = kJournalVersion;
  std::uint64_t config_digest = 0;  ///< evaluator + base-design digest
  std::uint64_t space_digest = 0;   ///< DesignSpace::digest()
  std::uint64_t total_points = 0;   ///< full (unsharded) grid size
  Shard shard;

  /// Everything but the shard must match to resume or merge.
  bool compatible_with(const JournalHeader& other) const;
};

enum class PointStatus { Ok, Quarantined };

struct JournalRecord {
  std::uint64_t index = 0;       ///< point index in enumeration order
  std::uint64_t point_hash = 0;  ///< core::hash_point of the coordinates
  PointStatus status = PointStatus::Ok;
  std::uint32_t attempts = 1;
  /// Ok: the sweep CSV row (core::sweep_result_to_row). Quarantined: the
  /// final error message.
  std::string payload;
};

/// Per-point provenance event. All times are seconds since the writing
/// run started: tq = the point entered the work queue, te0/te1 = first
/// attempt began / final attempt ended, tj = the point record was durably
/// appended. The stage split comes from the process-wide stage histograms
/// (deltas taken around the evaluation), so it is exact single-threaded and
/// approximate when worker threads overlap.
struct PointEvent {
  std::uint64_t index = 0;
  PointStatus status = PointStatus::Ok;
  std::uint32_t attempts = 1;
  double t_queue_s = 0.0;
  double t_eval_start_s = 0.0;
  double t_eval_end_s = 0.0;
  double t_journal_s = 0.0;
  double block_sim_s = 0.0;  ///< time/block_run delta
  double decode_s = 0.0;     ///< time/decode delta (any reconstructing solver)
  double detect_s = 0.0;     ///< time/detect_score delta
  /// Empty for a clean first-attempt success; otherwise the last error seen
  /// (a retried-then-ok point keeps its retry cause).
  std::string cause;

  double eval_s() const { return t_eval_end_s - t_eval_start_s; }
};

/// One evaluation stage a PointEvent splits its time across: the
/// process-wide histogram it is read from and the event field it lands in.
struct EvalStage {
  const char* name;
  const char* histogram;
  double PointEvent::*seconds;
};
/// The stage table, in render order. Point settlement takes its deltas from
/// it, and status.json and the sweep_status report render their stage rows
/// from it (each followed by a whole-point "point" row).
inline constexpr EvalStage kEvalStages[] = {
    {"block_sim", "time/block_run", &PointEvent::block_sim_s},
    {"decode", "time/decode", &PointEvent::decode_s},
    {"detect", "time/detect_score", &PointEvent::detect_s},
};

std::string header_to_line(const JournalHeader& h);
std::string record_to_line(const JournalRecord& r);
std::string event_to_line(const PointEvent& e);

/// Seal `payload` (a one-object JSON line missing its closing brace) with
/// the journal crc discipline: append `,"crc":"<16 hex>"}` where crc is
/// FNV-1a64 over every byte before it. Shared by journal lines and the
/// fleet spool files (leases, heartbeats, manifest) so there is exactly one
/// wire format to validate.
std::string seal_line(const std::string& payload);
/// Verify a sealed line; returns the payload (without the crc suffix) or
/// nullopt when the crc is missing or does not match.
std::optional<std::string> unseal_line(const std::string& line);

struct JournalContents {
  JournalHeader header;
  std::vector<JournalRecord> records;  ///< valid records, file order
  std::vector<PointEvent> events;      ///< valid provenance events, file order
  std::uint64_t valid_bytes = 0;       ///< offset just past the last valid line
  std::uint64_t dropped_lines = 0;     ///< corrupt/truncated tail lines dropped
};

/// Read and validate a journal. Returns nullopt when the file is missing,
/// empty, or its header line is unreadable (treated as "no journal").
/// Validation stops at the first bad line: everything from there on counts
/// as a truncated tail and is reported via dropped_lines, with valid_bytes
/// marking where a writer should truncate before appending.
std::optional<JournalContents> read_journal(const std::string& path);

/// Append-side handle. Sync policy comes from EFFICSENSE_FSYNC by default:
/// `each` fsyncs every record (the kill-test durability bar), `group`
/// coalesces fsyncs across records within a small window (see
/// util::SyncMode). Coalesced syncs are counted on run/fsync_coalesced.
class JournalWriter {
 public:
  /// Start a fresh journal at `path` (replacing any existing file) and
  /// write the header record.
  static JournalWriter create(const std::string& path, const JournalHeader& h,
                              std::optional<SyncMode> mode = std::nullopt);
  /// Re-open an existing journal for append after truncating it to
  /// `valid_bytes` (as reported by read_journal), dropping a corrupt tail.
  static JournalWriter resume(const std::string& path,
                              std::uint64_t valid_bytes,
                              std::optional<SyncMode> mode = std::nullopt);

  void append(const JournalRecord& r);
  void append_event(const PointEvent& e);
  /// Force a deferred group-commit fsync to disk now.
  void flush() { file_.flush(); }

 private:
  explicit JournalWriter(AppendFile file) : file_(std::move(file)) {}
  void note_coalesced();

  AppendFile file_;
  std::uint64_t reported_coalesced_ = 0;
};

/// Minimal field extractors for the flat one-object JSON the run layer
/// writes (journal lines, status.json). Shared with the status tooling so
/// both sides agree on one parsing discipline.
namespace jsonf {
std::optional<std::string> string_field(const std::string& line,
                                        const std::string& key);
std::optional<std::uint64_t> int_field(const std::string& line,
                                       const std::string& key);
std::optional<double> double_field(const std::string& line,
                                   const std::string& key);
std::optional<bool> bool_field(const std::string& line,
                               const std::string& key);
}  // namespace jsonf

}  // namespace efficsense::run
