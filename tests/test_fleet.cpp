// The multi-worker sweep fabric: spool file round-trips, group-commit
// journaling, the lease lifecycle (grant, steal-split, expiry →
// reassignment), duplicate-commit handling at merge time, merge output
// determinism under journal-order permutation, spool discovery and the
// fleet view of build_report. Fleets here run in-process — coordinator and
// workers on threads sharing a TempDir spool — which exercises the same
// file protocol the forked run_sweep fleet uses.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/design_space.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "run/coordinator.hpp"
#include "run/durable.hpp"
#include "run/fleet.hpp"
#include "run/journal.hpp"
#include "run/status_report.hpp"
#include "run/worker.hpp"
#include "util/atomic_io.hpp"
#include "util/error.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::run;

namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("efficsense_fleet_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

/// A 24-point space, big enough that two workers genuinely share it.
DesignSpace fleet_space() {
  DesignSpace space;
  space.add_axis("lna_noise_vrms", {1e-6, 2e-6, 3e-6, 4e-6})
      .add_axis("adc_bits", {4, 5, 6, 7, 8, 9});
  return space;
}

/// Deterministic, cheap stand-in for Evaluator::evaluate.
EvalMetrics fake_metrics(const power::DesignParams& d) {
  EvalMetrics m;
  m.snr_db = 20.0 + 1e6 * d.lna_noise_vrms + d.adc_bits;
  m.accuracy = 0.9 + 0.001 * d.adc_bits;
  m.power_w = 1e-6 * d.adc_bits + d.lna_noise_vrms;
  m.area_unit_caps = 100.0 * d.adc_bits;
  m.segments_evaluated = 4;
  m.power_breakdown.add("lna", 0.5 * m.power_w);
  m.power_breakdown.add("adc", 0.5 * m.power_w);
  m.area_breakdown.add("adc", m.area_unit_caps);
  return m;
}

/// Serial oracle: the unsharded DurableSweeper run every fleet result must
/// reproduce bitwise (as CSV).
std::string serial_csv(const TempDir& tmp, const DesignSpace& space,
                       std::uint64_t digest = 42) {
  RunOptions o;
  o.journal_path = tmp.path("serial_oracle.jsonl");
  o.config_digest = digest;
  DurableSweeper sweeper(fake_metrics, o);
  power::DesignParams base;
  const auto out = sweeper.run(base, space);
  return sweep_to_csv(out.results);
}

CoordinatorOptions coord_options(const std::string& spool, double ttl = 5.0) {
  CoordinatorOptions o;
  o.spool_dir = spool;
  o.config_digest = 42;
  o.lease_ttl_s = ttl;
  o.poll_interval_s = 0.01;
  o.stall_timeout_s = 30.0;  // fail the test instead of hanging forever
  return o;
}

WorkerOptions worker_options(const std::string& spool,
                             const std::string& name) {
  WorkerOptions o;
  o.spool_dir = spool;
  o.name = name;
  o.config_digest = 42;
  o.poll_interval_s = 0.005;
  o.manifest_timeout_s = 10.0;
  return o;
}

std::string read_text(const std::string& path) {
  const auto blob = read_file(path);
  return blob ? *blob : std::string();
}

/// Scoped env var override restoring the previous value on destruction.
struct ScopedEnv {
  std::string key;
  std::string saved;
  bool had = false;
  ScopedEnv(const std::string& k, const char* value) : key(k) {
    if (const char* old = std::getenv(k.c_str())) {
      had = true;
      saved = old;
    }
    if (value) {
      ::setenv(k.c_str(), value, 1);
    } else {
      ::unsetenv(k.c_str());
    }
  }
  ~ScopedEnv() {
    if (had) {
      ::setenv(key.c_str(), saved.c_str(), 1);
    } else {
      ::unsetenv(key.c_str());
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Spool file vocabulary

TEST(FleetFiles, ManifestLeaseHeartbeatRoundTrip) {
  FleetManifest m;
  m.header.config_digest = 0xABCDEF;
  m.header.space_digest = 0x1234;
  m.header.total_points = 24;
  m.lease_ttl_s = 2.5;
  const auto m2 = parse_manifest(manifest_to_line(m));
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->header.config_digest, m.header.config_digest);
  EXPECT_EQ(m2->header.space_digest, m.header.space_digest);
  EXPECT_EQ(m2->header.total_points, 24u);
  EXPECT_DOUBLE_EQ(m2->lease_ttl_s, 2.5);

  Lease l;
  l.id = 7;
  l.worker = "w1";
  l.begin = 6;
  l.end = 12;
  l.version = 3;
  const auto l2 = parse_lease(lease_to_line(l));
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->id, 7u);
  EXPECT_EQ(l2->worker, "w1");
  EXPECT_EQ(l2->begin, 6u);
  EXPECT_EQ(l2->end, 12u);
  EXPECT_EQ(l2->version, 3u);

  WorkerHeartbeat hb;
  hb.worker = "w1";
  hb.updated_unix_s = 1234.5;
  hb.lease_id = 7;
  hb.lease_version = 3;
  hb.next = 9;
  hb.committed = 4;
  hb.idle = false;
  const auto hb2 = parse_heartbeat(heartbeat_to_line(hb));
  ASSERT_TRUE(hb2.has_value());
  EXPECT_EQ(hb2->worker, "w1");
  EXPECT_DOUBLE_EQ(hb2->updated_unix_s, 1234.5);
  EXPECT_EQ(hb2->lease_id, 7u);
  EXPECT_EQ(hb2->lease_version, 3u);
  EXPECT_EQ(hb2->next, 9u);
  EXPECT_EQ(hb2->committed, 4u);
  EXPECT_FALSE(hb2->idle);
}

TEST(FleetFiles, SealedFilesSurviveRoundTripAndRejectCorruption) {
  TempDir tmp;
  const auto path = tmp.path("lease.json");
  Lease l;
  l.id = 1;
  l.worker = "w";
  l.begin = 0;
  l.end = 6;
  write_sealed_file(path, lease_to_line(l));
  const auto back = read_sealed_file(path);
  ASSERT_TRUE(back.has_value());
  const auto parsed = parse_lease(*back);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->end, 6u);

  // Flip a byte: the crc must reject the file ("absent", never garbage).
  auto bytes = read_text(path);
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_FALSE(read_sealed_file(path).has_value());

  EXPECT_FALSE(read_sealed_file(tmp.path("missing.json")).has_value());
}

TEST(FleetFiles, EnvKnobs) {
  {
    ScopedEnv ttl("EFFICSENSE_LEASE_TTL", nullptr);
    EXPECT_DOUBLE_EQ(lease_ttl_s_from_env(), 10.0);
  }
  {
    ScopedEnv ttl("EFFICSENSE_LEASE_TTL", "2.5");
    EXPECT_DOUBLE_EQ(lease_ttl_s_from_env(), 2.5);
  }
  {
    // Floor: a TTL below 0.1 s would expire workers between heartbeats.
    ScopedEnv ttl("EFFICSENSE_LEASE_TTL", "0.001");
    EXPECT_DOUBLE_EQ(lease_ttl_s_from_env(), 0.1);
  }
  {
    ScopedEnv w("EFFICSENSE_WORKERS", nullptr);
    EXPECT_EQ(workers_from_env(), 0u);
  }
  {
    ScopedEnv w("EFFICSENSE_WORKERS", "4");
    EXPECT_EQ(workers_from_env(), 4u);
  }
}

// ---------------------------------------------------------------------------
// Group-commit journaling

TEST(GroupCommit, SyncModeFromEnv) {
  {
    ScopedEnv mode("EFFICSENSE_FSYNC", nullptr);
    EXPECT_EQ(sync_mode_from_env(), SyncMode::Each);
  }
  {
    ScopedEnv mode("EFFICSENSE_FSYNC", "each");
    EXPECT_EQ(sync_mode_from_env(), SyncMode::Each);
  }
  {
    ScopedEnv mode("EFFICSENSE_FSYNC", "group");
    EXPECT_EQ(sync_mode_from_env(), SyncMode::Group);
  }
  {
    ScopedEnv mode("EFFICSENSE_FSYNC", "sometimes");
    EXPECT_THROW(sync_mode_from_env(), Error);
  }
}

TEST(GroupCommit, EachModeSyncsEveryLine) {
  TempDir tmp;
  AppendFile f(tmp.path("each.log"), SyncMode::Each);
  for (int i = 0; i < 5; ++i) f.append_line("line " + std::to_string(i));
  EXPECT_EQ(f.syncs(), 5u);
  EXPECT_EQ(f.coalesced(), 0u);
}

TEST(GroupCommit, GroupModeCoalescesWithinWindow) {
  TempDir tmp;
  const auto path = tmp.path("group.log");
  {
    // A huge window: every append after the first lands inside it.
    AppendFile f(path, SyncMode::Group, /*group_window_s=*/3600.0);
    for (int i = 0; i < 20; ++i) f.append_line("line " + std::to_string(i));
    EXPECT_EQ(f.syncs(), 0u);
    EXPECT_EQ(f.coalesced(), 20u);
    f.flush();
    EXPECT_EQ(f.syncs(), 1u);
    f.flush();  // clean: no extra sync
    EXPECT_EQ(f.syncs(), 1u);
  }
  // Deferred syncs lose no data within the process.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 20);
}

TEST(GroupCommit, JournalWriterCountsCoalescedSyncs) {
  TempDir tmp;
  const auto before = obs::counter("run/fsync_coalesced").value();
  JournalHeader h;
  h.config_digest = 1;
  h.space_digest = 2;
  h.total_points = 64;
  {
    auto w = JournalWriter::create(tmp.path("g.jsonl"), h, SyncMode::Group);
    JournalRecord r;
    r.payload = "x";
    // Tight appends: with the 5 ms window most of these coalesce.
    for (std::uint64_t i = 0; i < 64; ++i) {
      r.index = i;
      w.append(r);
    }
    w.flush();
  }
  EXPECT_GT(obs::counter("run/fsync_coalesced").value(), before);
  // The journal still reads back complete.
  const auto back = read_journal(tmp.path("g.jsonl"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->records.size(), 64u);
}

// ---------------------------------------------------------------------------
// Fleet runs (coordinator + workers on threads, shared spool)

TEST(Fleet, SingleWorkerMatchesSerial) {
  TempDir tmp;
  const auto space = fleet_space();
  const auto oracle = serial_csv(tmp, space);
  const auto spool = tmp.path("spool");

  power::DesignParams base;
  Coordinator coordinator(base, space, coord_options(spool));
  CoordinatorOutcome outcome;
  std::thread coord([&] { outcome = coordinator.run(); });
  std::thread worker([&] {
    Worker w(fake_metrics, base, space, worker_options(spool, "w0"));
    w.run();
  });
  coord.join();
  worker.join();

  EXPECT_EQ(outcome.merged.results.size(), 24u);
  EXPECT_TRUE(outcome.merged.quarantined.empty());
  EXPECT_EQ(sweep_to_csv(outcome.merged.results), oracle);
  EXPECT_EQ(outcome.stats.workers_seen, 1u);
  EXPECT_GE(outcome.stats.leases_granted, 1u);
  EXPECT_EQ(outcome.stats.leases_expired, 0u);
  ASSERT_EQ(outcome.worker_journals.size(), 1u);

  const auto paths = spool_paths(spool);
  EXPECT_TRUE(fs::exists(paths.done));
  EXPECT_TRUE(fs::exists(paths.merged));
  const auto merged = read_journal(paths.merged);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->records.size(), 24u);
}

namespace {

/// fake_metrics, except that point (2 uV, 6 bits) fails its first attempt
/// and point (3 uV, 8 bits) fails every attempt. Each instance keeps its own
/// attempt count, so two runs fed fresh instances see identical failures.
struct FlakyEval {
  std::shared_ptr<std::atomic<int>> transient_calls =
      std::make_shared<std::atomic<int>>(0);

  EvalMetrics operator()(const power::DesignParams& d) const {
    if (d.lna_noise_vrms == 2e-6 && d.adc_bits == 6 &&
        transient_calls->fetch_add(1) == 0) {
      throw std::runtime_error("transient failure");
    }
    if (d.lna_noise_vrms == 3e-6 && d.adc_bits == 8) {
      throw std::runtime_error("permanent failure");
    }
    return fake_metrics(d);
  }
};

/// The journal's point-record lines, verbatim, in file order.
std::vector<std::string> point_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_text(path));
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"point\"") != std::string::npos) {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace

TEST(Fleet, WorkerSettlesPointsLikeDurableSweeper) {
  // A fleet worker and a DurableSweeper fed the same evaluation function
  // must write the same records: same retry, same quarantine, same bytes.
  TempDir tmp;
  const auto space = fleet_space();
  const auto spool = tmp.path("spool");
  power::DesignParams base;

  RunOptions o;
  o.journal_path = tmp.path("durable.jsonl");
  o.config_digest = 42;
  const auto serial = DurableSweeper(FlakyEval{}, o).run(base, space);
  ASSERT_EQ(serial.quarantined.size(), 1u);
  EXPECT_EQ(serial.points_retried, 3u);  // 1 for the transient, 2 for B

  Coordinator coordinator(base, space, coord_options(spool));
  CoordinatorOutcome outcome;
  std::thread coord([&] { outcome = coordinator.run(); });
  WorkerOutcome worker_outcome;
  std::thread worker([&] {
    Worker w(FlakyEval{}, base, space, worker_options(spool, "w0"));
    worker_outcome = w.run();
  });
  coord.join();
  worker.join();
  EXPECT_EQ(worker_outcome.points_quarantined, 1u);
  EXPECT_EQ(worker_outcome.points_evaluated, 23u);
  EXPECT_EQ(sweep_to_csv(outcome.merged.results), sweep_to_csv(serial.results));

  const auto worker_journal = spool_paths(spool).journal_path("w0");
  const auto durable_lines = point_lines(o.journal_path);
  ASSERT_EQ(durable_lines.size(), 24u);
  EXPECT_EQ(point_lines(worker_journal), durable_lines);

  const auto durable = read_journal(o.journal_path);
  const auto fleet = read_journal(worker_journal);
  ASSERT_TRUE(durable.has_value());
  ASSERT_TRUE(fleet.has_value());
  ASSERT_EQ(durable->events.size(), 24u);
  ASSERT_EQ(fleet->events.size(), durable->events.size());
  for (std::size_t i = 0; i < durable->events.size(); ++i) {
    const auto& a = durable->events[i];
    const auto& b = fleet->events[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.status, b.status) << "point " << a.index;
    EXPECT_EQ(a.attempts, b.attempts) << "point " << a.index;
    EXPECT_EQ(a.cause, b.cause) << "point " << a.index;
  }
  std::size_t retried = 0;
  for (const auto& ev : fleet->events) {
    if (ev.attempts == 1) continue;
    ++retried;
    EXPECT_EQ(ev.cause, ev.status == PointStatus::Ok ? "transient failure"
                                                     : "permanent failure");
  }
  EXPECT_EQ(retried, 2u);
}

TEST(Fleet, IdleWorkerStealsFromBusyLease) {
  TempDir tmp;
  const auto space = fleet_space();
  const auto oracle = serial_csv(tmp, space);
  const auto spool = tmp.path("spool");

  power::DesignParams base;
  Coordinator coordinator(base, space, coord_options(spool));
  CoordinatorOutcome outcome;
  std::thread coord([&] { outcome = coordinator.run(); });
  // wslow drags 50 ms per point; wfast drains the pending queue and must
  // then split wslow's lease to finish.
  std::thread slow([&] {
    Worker w(
        [](const power::DesignParams& d) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          return fake_metrics(d);
        },
        base, space, worker_options(spool, "wslow"));
    w.run();
  });
  std::thread fast([&] {
    Worker w(fake_metrics, base, space, worker_options(spool, "wfast"));
    w.run();
  });
  coord.join();
  slow.join();
  fast.join();

  EXPECT_EQ(outcome.merged.results.size(), 24u);
  EXPECT_EQ(sweep_to_csv(outcome.merged.results), oracle);
  EXPECT_EQ(outcome.stats.workers_seen, 2u);
  EXPECT_GE(outcome.stats.leases_stolen, 1u);
  // merge_journals already proved no conflicting double-commit (it throws
  // on diverging duplicates); check no point was lost either.
  const auto merged = read_journal(spool_paths(spool).merged);
  ASSERT_TRUE(merged.has_value());
  std::vector<bool> seen(24, false);
  for (const auto& rec : merged->records) {
    ASSERT_LT(rec.index, 24u);
    EXPECT_FALSE(seen[rec.index]) << "index " << rec.index << " twice";
    seen[rec.index] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "index " << i << " lost";
  }
}

namespace {
/// Not derived from std::exception, so the worker's per-point retry cannot
/// catch it: the worker thread dies mid-lease like a crashed process, and
/// its heartbeat beacon stops with it.
struct WorkerKilled {};
}  // namespace

TEST(Fleet, ExpiredLeaseIsReassignedToSurvivor) {
  TempDir tmp;
  const auto space = fleet_space();
  const auto oracle = serial_csv(tmp, space);
  const auto spool = tmp.path("spool");

  power::DesignParams base;
  auto options = coord_options(spool, /*ttl=*/0.5);
  Coordinator coordinator(base, space, options);
  CoordinatorOutcome outcome;
  std::thread coord([&] { outcome = coordinator.run(); });
  std::atomic<int> doomed_evals{0};
  std::thread doomed([&] {
    Worker w(
        [&](const power::DesignParams& d) {
          if (doomed_evals.fetch_add(1) >= 2) throw WorkerKilled{};
          return fake_metrics(d);
        },
        base, space, worker_options(spool, "wdoomed"));
    try {
      w.run();
    } catch (const WorkerKilled&) {
      // Dead. The Worker unwound, so its heartbeat thread is gone too.
    }
  });
  std::thread survivor([&] {
    Worker w(
        [](const power::DesignParams& d) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return fake_metrics(d);
        },
        base, space, worker_options(spool, "wsurvivor"));
    w.run();
  });
  coord.join();
  doomed.join();
  survivor.join();

  // The sweep cannot complete without the doomed worker's uncommitted range
  // being revoked and re-granted, so these are guarantees, not races.
  EXPECT_GE(outcome.stats.leases_expired, 1u);
  EXPECT_GE(outcome.stats.leases_reassigned, 1u);
  EXPECT_EQ(outcome.merged.results.size(), 24u);
  EXPECT_EQ(sweep_to_csv(outcome.merged.results), oracle);
}

TEST(Fleet, CompletedSpoolResumesWithoutWorkers) {
  TempDir tmp;
  const auto space = fleet_space();
  const auto spool = tmp.path("spool");

  power::DesignParams base;
  {
    Coordinator coordinator(base, space, coord_options(spool));
    std::thread coord([&] { coordinator.run(); });
    Worker w(fake_metrics, base, space, worker_options(spool, "w0"));
    w.run();
    coord.join();
  }

  // Every point is already journaled: a restarted coordinator adopts them
  // all and finishes with zero workers and zero grants (a stall timeout
  // would fire if it were actually waiting on anyone).
  auto options = coord_options(spool);
  options.stall_timeout_s = 5.0;
  Coordinator again(base, space, options);
  const auto outcome = again.run();
  EXPECT_EQ(outcome.merged.results.size(), 24u);
  EXPECT_EQ(outcome.stats.leases_granted, 0u);
  EXPECT_EQ(outcome.stats.workers_seen, 0u);
}

TEST(Fleet, WorkerRefusesForeignManifest) {
  TempDir tmp;
  const auto space = fleet_space();
  const auto spool = tmp.path("spool");
  const auto paths = spool_paths(spool);
  fs::create_directories(paths.workers_dir);
  fs::create_directories(paths.leases_dir);

  // A manifest pinned to a different configuration digest.
  power::DesignParams base;
  RunOptions foreign;
  foreign.config_digest = 7;
  FleetManifest m;
  m.header = make_header(foreign, base, space);
  write_sealed_file(paths.manifest, manifest_to_line(m));

  Worker w(fake_metrics, base, space, worker_options(spool, "w0"));
  EXPECT_THROW(w.run(), Error);
}

TEST(Fleet, WorkerNameMustBeAFileStem) {
  TempDir tmp;
  power::DesignParams base;
  const auto space = fleet_space();
  EXPECT_THROW(
      Worker(fake_metrics, base, space, worker_options(tmp.path("s"), "a/b")),
      Error);
  EXPECT_THROW(
      Worker(fake_metrics, base, space, worker_options(tmp.path("s"), "..")),
      Error);
}

// ---------------------------------------------------------------------------
// Merge semantics for overlapping worker journals

namespace {

/// Write a whole-shard journal holding the given subset of `donor` records.
void write_subset_journal(const std::string& path, const JournalHeader& h,
                          const std::vector<JournalRecord>& donor,
                          const std::vector<std::uint64_t>& indices,
                          std::uint32_t attempts = 1) {
  JournalHeader whole = h;
  whole.shard = Shard{};
  auto w = JournalWriter::create(path, whole);
  for (const auto idx : indices) {
    JournalRecord r = donor[idx];
    r.attempts = attempts;
    w.append(r);
  }
}

}  // namespace

TEST(Merge, IdenticalDuplicatesAreBenignConflictsRefuse) {
  TempDir tmp;
  const auto space = fleet_space();
  // Donor records from a serial run.
  RunOptions o;
  o.journal_path = tmp.path("donor.jsonl");
  o.config_digest = 42;
  power::DesignParams base;
  DurableSweeper(fake_metrics, o).run(base, space);
  const auto donor = read_journal(o.journal_path);
  ASSERT_TRUE(donor.has_value());
  ASSERT_EQ(donor->records.size(), 24u);

  std::vector<std::uint64_t> low, high;
  for (std::uint64_t i = 0; i <= 13; ++i) low.push_back(i);
  for (std::uint64_t i = 12; i < 24; ++i) high.push_back(i);  // overlap 12,13

  // Identical duplicate commits (a steal or expiry re-evaluated points 12
  // and 13 deterministically): merge dedups them.
  write_subset_journal(tmp.path("a.jsonl"), donor->header, donor->records,
                       low);
  write_subset_journal(tmp.path("b.jsonl"), donor->header, donor->records,
                       high);
  const auto merged = merge_journals(
      {tmp.path("a.jsonl"), tmp.path("b.jsonl")}, base);
  EXPECT_EQ(merged.results.size(), 24u);

  // A conflicting duplicate (same index, different payload — impossible
  // under deterministic evaluation, so it means a corrupted or foreign
  // journal): merge must refuse rather than pick a side.
  {
    JournalHeader whole = donor->header;
    whole.shard = Shard{};
    auto w = JournalWriter::create(tmp.path("c.jsonl"), whole);
    for (const auto idx : high) {
      JournalRecord r = donor->records[idx];
      if (idx == 12) r.payload = donor->records[13].payload;
      w.append(r);
    }
  }
  EXPECT_THROW(
      merge_journals({tmp.path("a.jsonl"), tmp.path("c.jsonl")}, base),
      Error);
}

TEST(Merge, OutputBytesIndependentOfJournalOrder) {
  TempDir tmp;
  const auto space = fleet_space();
  RunOptions o;
  o.journal_path = tmp.path("donor.jsonl");
  o.config_digest = 42;
  power::DesignParams base;
  DurableSweeper(fake_metrics, o).run(base, space);
  const auto donor = read_journal(o.journal_path);
  ASSERT_TRUE(donor.has_value());

  // Both journals cover everything; they differ in the attempts field, so
  // which journal "wins" each duplicate is observable in the merged bytes.
  std::vector<std::uint64_t> all(24);
  for (std::uint64_t i = 0; i < 24; ++i) all[i] = i;
  write_subset_journal(tmp.path("a.jsonl"), donor->header, donor->records,
                       all, /*attempts=*/1);
  write_subset_journal(tmp.path("b.jsonl"), donor->header, donor->records,
                       all, /*attempts=*/2);

  merge_journals({tmp.path("a.jsonl"), tmp.path("b.jsonl")}, base,
                 tmp.path("m_ab.jsonl"));
  merge_journals({tmp.path("b.jsonl"), tmp.path("a.jsonl")}, base,
                 tmp.path("m_ba.jsonl"));
  const auto ab = read_text(tmp.path("m_ab.jsonl"));
  ASSERT_FALSE(ab.empty());
  EXPECT_EQ(ab, read_text(tmp.path("m_ba.jsonl")));
  // Winner is the path-sorted first journal (a.jsonl), not the argument
  // order: every merged record carries its attempts value.
  const auto merged = read_journal(tmp.path("m_ba.jsonl"));
  ASSERT_TRUE(merged.has_value());
  for (const auto& rec : merged->records) EXPECT_EQ(rec.attempts, 1u);
}

// ---------------------------------------------------------------------------
// Spool discovery + fleet-mode status report

TEST(SpoolDiscovery, FleetSpoolAndPlainDirectory) {
  TempDir tmp;
  // Fleet spool: workers/*.jsonl + coordinator heartbeat.
  const auto spool = tmp.path("spool");
  const auto paths = spool_paths(spool);
  fs::create_directories(paths.workers_dir);
  std::ofstream(paths.journal_path("wb")) << "";
  std::ofstream(paths.journal_path("wa")) << "";
  std::ofstream(paths.workers_dir + "/not_a_journal.txt") << "";
  std::ofstream(paths.coordinator_status) << "";
  const auto fleet = discover_spool(spool);
  ASSERT_EQ(fleet.journals.size(), 2u);
  EXPECT_EQ(fleet.journals[0], paths.journal_path("wa"));
  EXPECT_EQ(fleet.journals[1], paths.journal_path("wb"));
  EXPECT_EQ(fleet.status_path, paths.coordinator_status);

  // Plain directory of journals: every *.jsonl, sorted, no status.
  const auto plain = tmp.path("plain");
  fs::create_directories(plain);
  std::ofstream(plain + "/y.jsonl") << "";
  std::ofstream(plain + "/x.jsonl") << "";
  const auto dir = discover_spool(plain);
  ASSERT_EQ(dir.journals.size(), 2u);
  EXPECT_EQ(dir.journals[0], plain + "/x.jsonl");
  EXPECT_EQ(dir.journals[1], plain + "/y.jsonl");
  EXPECT_TRUE(dir.status_path.empty());

  // No journals at all: an error, not an empty report.
  const auto empty = tmp.path("empty");
  fs::create_directories(empty);
  EXPECT_THROW(discover_spool(empty), Error);
}

TEST(StatusReport, FleetJournalsAggregateByUnion) {
  TempDir tmp;
  const auto space = fleet_space();
  RunOptions o;
  o.journal_path = tmp.path("donor.jsonl");
  o.config_digest = 42;
  power::DesignParams base;
  DurableSweeper(fake_metrics, o).run(base, space);
  const auto donor = read_journal(o.journal_path);
  ASSERT_TRUE(donor.has_value());

  // Two overlapping whole-shard journals covering the grid between them.
  std::vector<std::uint64_t> low, high;
  for (std::uint64_t i = 0; i <= 13; ++i) low.push_back(i);
  for (std::uint64_t i = 12; i < 24; ++i) high.push_back(i);
  write_subset_journal(tmp.path("wa.jsonl"), donor->header, donor->records,
                       low);
  write_subset_journal(tmp.path("wb.jsonl"), donor->header, donor->records,
                       high);

  const auto report =
      build_report({tmp.path("wa.jsonl"), tmp.path("wb.jsonl")});
  // Union semantics: 26 records but 24 unique points; overlap is not
  // double-counted and the whole-grid frontier is contiguous and complete.
  EXPECT_EQ(report.total_points, 24u);
  EXPECT_EQ(report.owned, 24u);
  EXPECT_EQ(report.committed, 24u);
  EXPECT_EQ(report.frontier, 24u);
  EXPECT_TRUE(report.complete);

  // An incomplete fleet: drop the high journal's tail.
  std::vector<std::uint64_t> partial_high;
  for (std::uint64_t i = 12; i < 20; ++i) partial_high.push_back(i);
  write_subset_journal(tmp.path("wb.jsonl"), donor->header, donor->records,
                       partial_high);
  const auto partial =
      build_report({tmp.path("wa.jsonl"), tmp.path("wb.jsonl")});
  EXPECT_EQ(partial.owned, 24u);
  EXPECT_EQ(partial.committed, 20u);
  EXPECT_EQ(partial.frontier, 20u);  // 0..19 contiguous
  EXPECT_FALSE(partial.complete);
}
