// The durable sweep runtime: journal round-trips, corruption handling
// (truncated tail, checksum mismatch, foreign config digest), shard/merge
// equivalence against an unsharded run, resume accounting, bounded retry,
// quarantine-and-continue and the per-point timeout.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "classify/detector.hpp"
#include "core/design_space.hpp"
#include "core/evaluator.hpp"
#include "core/sweep.hpp"
#include "cs/solver.hpp"
#include "eeg/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecar.hpp"
#include "run/durable.hpp"
#include "run/journal.hpp"
#include "util/atomic_io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

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
          ("efficsense_run_test_" +
           std::to_string(::getpid()) + "_" +
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

/// A small 2-axis space: 6 points.
DesignSpace small_space() {
  DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 6e-6, 20e-6})
      .add_axis("adc_bits", {6, 8});
  return space;
}

/// Deterministic, cheap stand-in for Evaluator::evaluate: metrics derived
/// from the design parameters, so results are reproducible bit for bit.
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

RunOptions options_with(const std::string& journal_path,
                        std::uint64_t digest = 42) {
  RunOptions o;
  o.journal_path = journal_path;
  o.config_digest = digest;
  return o;
}

std::string read_text(const std::string& path) {
  const auto blob = read_file(path);
  return blob ? *blob : std::string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Journal line format

TEST(Journal, HeaderAndRecordRoundTrip) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.config_digest = 0xDEADBEEFCAFEF00DULL;
  h.space_digest = 0x1234;
  h.total_points = 6;
  h.shard = parse_shard("1/3");
  {
    auto w = JournalWriter::create(path, h);
    JournalRecord r;
    r.index = 4;
    r.point_hash = 0xABCD;
    r.status = PointStatus::Ok;
    r.attempts = 2;
    r.payload = "adc_bits=6;lna_noise_vrms=2e-06,1,2,3,4,5,a:1|b:2,c:3";
    w.append(r);
    JournalRecord q;
    q.index = 1;
    q.point_hash = 0x99;
    q.status = PointStatus::Quarantined;
    q.attempts = 3;
    q.payload = "evaluation failed: \"quoted\"\nsecond line";
    w.append(q);
  }
  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.config_digest, h.config_digest);
  EXPECT_EQ(back->header.space_digest, h.space_digest);
  EXPECT_EQ(back->header.total_points, 6u);
  EXPECT_EQ(back->header.shard.index, 1u);
  EXPECT_EQ(back->header.shard.count, 3u);
  ASSERT_EQ(back->records.size(), 2u);
  EXPECT_EQ(back->records[0].index, 4u);
  EXPECT_EQ(back->records[0].point_hash, 0xABCDu);
  EXPECT_EQ(back->records[0].status, PointStatus::Ok);
  EXPECT_EQ(back->records[0].attempts, 2u);
  EXPECT_EQ(back->records[0].payload,
            "adc_bits=6;lna_noise_vrms=2e-06,1,2,3,4,5,a:1|b:2,c:3");
  EXPECT_EQ(back->records[1].status, PointStatus::Quarantined);
  EXPECT_EQ(back->records[1].payload,
            "evaluation failed: \"quoted\"\nsecond line");
  EXPECT_EQ(back->dropped_lines, 0u);
}

TEST(Journal, MissingOrEmptyIsNoJournal) {
  TempDir tmp;
  EXPECT_FALSE(read_journal(tmp.path("absent.jsonl")).has_value());
  const auto path = tmp.path("empty.jsonl");
  std::ofstream(path).close();
  EXPECT_FALSE(read_journal(path).has_value());
}

TEST(Journal, TruncatedFinalLineIsDropped) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.total_points = 6;
  {
    auto w = JournalWriter::create(path, h);
    for (std::uint64_t i = 0; i < 3; ++i) {
      JournalRecord r;
      r.index = i;
      r.payload = "row-" + std::to_string(i);
      w.append(r);
    }
  }
  // Chop the file mid-way through the last record (simulates a torn write).
  auto text = read_text(path);
  const auto full_size = text.size();
  truncate_file(path, full_size - 7);

  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->records.size(), 2u);
  EXPECT_EQ(back->dropped_lines, 1u);
  EXPECT_LT(back->valid_bytes, full_size - 7);

  // Resuming truncates the torn tail and appends cleanly after it.
  {
    auto w = JournalWriter::resume(path, back->valid_bytes);
    JournalRecord r;
    r.index = 5;
    r.payload = "row-5";
    w.append(r);
  }
  const auto again = read_journal(path);
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->records.size(), 3u);
  EXPECT_EQ(again->records[2].index, 5u);
  EXPECT_EQ(again->dropped_lines, 0u);
}

TEST(Journal, ChecksumMismatchedRecordIsDropped) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.total_points = 6;
  {
    auto w = JournalWriter::create(path, h);
    JournalRecord r;
    r.index = 0;
    r.payload = "row-0";
    w.append(r);
    r.index = 1;
    r.payload = "row-1";
    w.append(r);
  }
  // Flip one payload byte of the last record: its crc no longer matches.
  auto text = read_text(path);
  const auto pos = text.rfind("row-1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 4] = '9';
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;

  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records.size(), 1u);
  EXPECT_EQ(back->records[0].payload, "row-0");
  EXPECT_EQ(back->dropped_lines, 1u);
}

TEST(Journal, ShardSpecParsing) {
  EXPECT_EQ(parse_shard("0/1").count, 1u);
  EXPECT_EQ(parse_shard("2/5").index, 2u);
  EXPECT_TRUE(parse_shard("0/1").whole());
  EXPECT_FALSE(parse_shard("0/2").whole());
  EXPECT_THROW(parse_shard("3/3"), Error);
  EXPECT_THROW(parse_shard("nope"), Error);
  EXPECT_THROW(parse_shard("1/"), Error);
  EXPECT_THROW(parse_shard("/3"), Error);
  EXPECT_THROW(parse_shard("1/x"), Error);
  // Round-robin ownership covers every point exactly once.
  const auto a = parse_shard("0/3");
  const auto b = parse_shard("1/3");
  const auto c = parse_shard("2/3");
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(int(a.owns(i)) + int(b.owns(i)) + int(c.owns(i)), 1);
  }
}

// ---------------------------------------------------------------------------
// Point hashing & row round-trip

TEST(PointHash, FullPrecisionAndOrderStable) {
  PointValues a{{"x", 1.0000000000000002}, {"y", 2.0}};
  PointValues b{{"y", 2.0}, {"x", 1.0000000000000002}};  // same map contents
  PointValues c{{"x", 1.0}, {"y", 2.0}};  // 1 ulp away on x
  EXPECT_EQ(hash_point(a), hash_point(b));
  EXPECT_NE(hash_point(a), hash_point(c));
}

TEST(DesignSpaceDigest, SensitiveToAxesAndValues) {
  DesignSpace a = small_space();
  DesignSpace b = small_space();
  EXPECT_EQ(a.digest(), b.digest());
  DesignSpace c;
  c.add_axis("lna_noise_vrms", {2e-6, 6e-6, 20e-6}).add_axis("adc_bits", {6, 7});
  EXPECT_NE(a.digest(), c.digest());
}

TEST(SweepRow, RoundTripIsBitwiseStable) {
  power::DesignParams base;
  SweepResult r;
  r.point = {{"adc_bits", 7}, {"lna_noise_vrms", 3.5e-6}};
  r.design = apply_point(base, r.point);
  r.metrics = fake_metrics(r.design);
  const auto row = sweep_result_to_row(r);
  const auto back = parse_sweep_row(row, base);
  EXPECT_EQ(sweep_result_to_row(back), row);
}

// ---------------------------------------------------------------------------
// DurableSweeper

TEST(DurableSweeper, FreshRunWritesJournalAndResults) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  const DurableSweeper sweeper(fake_metrics, options_with(tmp.path("j.jsonl")));
  const auto outcome = sweeper.run(base, space);
  EXPECT_EQ(outcome.results.size(), space.size());
  EXPECT_EQ(outcome.points_evaluated, space.size());
  EXPECT_EQ(outcome.points_resumed, 0u);
  EXPECT_TRUE(outcome.quarantined.empty());

  const auto j = read_journal(tmp.path("j.jsonl"));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->records.size(), space.size());
  EXPECT_EQ(j->header.total_points, space.size());
}

TEST(DurableSweeper, ResumeSkipsJournaledPoints) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto space = small_space();
  power::DesignParams base;

  // First pass: evaluate only 2 points, then "crash" (stop evaluating).
  std::size_t calls = 0;
  {
    const DurableSweeper partial(
        [&](const power::DesignParams& d) {
          if (++calls > 2) throw Error("simulated crash");
          return fake_metrics(d);
        },
        [&] {
          auto o = options_with(path);
          o.max_attempts = 1;
          return o;
        }());
    (void)partial.run(base, space);
  }
  const auto after_crash = read_journal(path);
  ASSERT_TRUE(after_crash.has_value());

  // Keep the header + the 2 ok records (each followed by its provenance
  // event): drop the quarantined tail so the second pass has real work left
  // (mimics a SIGKILL after point 2).
  const auto text = read_text(path);
  std::size_t keep_bytes = 0;
  for (int lines = 0; lines < 5; ++lines) {
    keep_bytes = text.find('\n', keep_bytes) + 1;
  }
  truncate_file(path, keep_bytes);

  const auto resumed_before =
      efficsense::obs::counter("run/points_resumed").value();
  std::size_t second_calls = 0;
  const DurableSweeper sweeper(
      [&](const power::DesignParams& d) {
        ++second_calls;
        return fake_metrics(d);
      },
      options_with(path));
  const auto outcome = sweeper.run(base, space);
  EXPECT_EQ(outcome.points_resumed, 2u);
  EXPECT_EQ(outcome.points_evaluated, space.size() - 2);
  EXPECT_EQ(second_calls, space.size() - 2);
  EXPECT_EQ(outcome.results.size(), space.size());
  EXPECT_EQ(efficsense::obs::counter("run/points_resumed").value(),
            resumed_before + 2);

  // The resumed run's serialization equals a from-scratch run's.
  const DurableSweeper fresh(fake_metrics, RunOptions{});
  const auto golden = fresh.run(base, space);
  EXPECT_EQ(sweep_to_csv(outcome.results), sweep_to_csv(golden.results));
}

TEST(DurableSweeper, RefusesForeignConfigDigest) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto space = small_space();
  power::DesignParams base;
  {
    const DurableSweeper a(fake_metrics, options_with(path, 1));
    (void)a.run(base, space);
  }
  // Same journal, different evaluator-config digest: must refuse, not mix.
  const DurableSweeper b(fake_metrics, options_with(path, 2));
  EXPECT_THROW((void)b.run(base, space), Error);
  // And an unrelated space (different digest) must refuse too.
  DesignSpace other;
  other.add_axis("adc_bits", {6, 7, 8, 9, 10, 11});
  const DurableSweeper c(fake_metrics, options_with(path, 1));
  EXPECT_THROW((void)c.run(base, other), Error);
}

TEST(DurableSweeper, ShardsMergeBitwiseIdenticalToUnsharded) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;

  const DurableSweeper unsharded(fake_metrics,
                                 options_with(tmp.path("whole.jsonl")));
  const auto golden = unsharded.run(base, space);
  const auto golden_csv = sweep_to_csv(golden.results);

  std::vector<std::string> shard_paths;
  for (std::uint32_t s = 0; s < 3; ++s) {
    auto o = options_with(tmp.path("shard" + std::to_string(s) + ".jsonl"));
    o.shard = parse_shard(std::to_string(s) + "/3");
    shard_paths.push_back(o.journal_path);
    const DurableSweeper sweeper(fake_metrics, o);
    const auto slice = sweeper.run(base, space);
    EXPECT_EQ(slice.results.size(), space.size() / 3);
  }

  const auto merged =
      merge_journals(shard_paths, base, tmp.path("merged.jsonl"));
  EXPECT_EQ(merged.results.size(), space.size());
  EXPECT_EQ(sweep_to_csv(merged.results), golden_csv);

  // The merged journal itself is a valid whole-space journal.
  const auto mj = read_journal(tmp.path("merged.jsonl"));
  ASSERT_TRUE(mj.has_value());
  EXPECT_TRUE(mj->header.shard.whole());
  EXPECT_EQ(mj->records.size(), space.size());
}

TEST(Merge, RefusesIncompleteOrConflictingJournals) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;

  auto o0 = options_with(tmp.path("s0.jsonl"));
  o0.shard = parse_shard("0/3");
  (void)DurableSweeper(fake_metrics, o0).run(base, space);
  auto o1 = options_with(tmp.path("s1.jsonl"));
  o1.shard = parse_shard("1/3");
  (void)DurableSweeper(fake_metrics, o1).run(base, space);

  // Missing shard 2 -> incomplete coverage.
  EXPECT_THROW(
      (void)merge_journals({tmp.path("s0.jsonl"), tmp.path("s1.jsonl")}, base),
      Error);

  // A shard journal written under a different digest refuses to merge.
  auto o2 = options_with(tmp.path("s2_foreign.jsonl"), 777);
  o2.shard = parse_shard("2/3");
  (void)DurableSweeper(fake_metrics, o2).run(base, space);
  EXPECT_THROW((void)merge_journals({tmp.path("s0.jsonl"), tmp.path("s1.jsonl"),
                                     tmp.path("s2_foreign.jsonl")},
                                    base),
               Error);
}

TEST(DurableSweeper, RetriesThenSucceeds) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  std::size_t failures_left = 2;
  const auto retried_before =
      efficsense::obs::counter("run/points_retried").value();
  const DurableSweeper sweeper(
      [&](const power::DesignParams& d) {
        if (failures_left > 0) {
          --failures_left;
          throw Error("flaky backend");
        }
        return fake_metrics(d);
      },
      [&] {
        auto o = options_with(tmp.path("j.jsonl"));
        o.max_attempts = 3;
        return o;
      }());
  const auto outcome = sweeper.run(base, space);
  EXPECT_EQ(outcome.results.size(), space.size());
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(outcome.points_retried, 2u);
  EXPECT_EQ(efficsense::obs::counter("run/points_retried").value(),
            retried_before + 2);
  const auto j = read_journal(tmp.path("j.jsonl"));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->records[0].attempts, 3u);  // failed twice, succeeded third
}

TEST(DurableSweeper, QuarantinesPathologicalPointAndContinues) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  const auto quarantined_before =
      efficsense::obs::counter("run/points_quarantined").value();
  // Point with adc_bits == 8 and the lowest noise always fails.
  const DurableSweeper sweeper(
      [&](const power::DesignParams& d) {
        if (d.adc_bits == 8 && d.lna_noise_vrms < 3e-6) {
          throw Error("pathological point");
        }
        return fake_metrics(d);
      },
      [&] {
        auto o = options_with(tmp.path("j.jsonl"));
        o.max_attempts = 2;
        return o;
      }());
  const auto outcome = sweeper.run(base, space);
  EXPECT_EQ(outcome.results.size(), space.size() - 1);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined[0].attempts, 2u);
  EXPECT_NE(outcome.quarantined[0].error.find("pathological"),
            std::string::npos);
  EXPECT_EQ(efficsense::obs::counter("run/points_quarantined").value(),
            quarantined_before + 1);

  // Resume adopts the quarantine record instead of re-running the point.
  std::size_t calls = 0;
  const DurableSweeper resume(
      [&](const power::DesignParams& d) {
        ++calls;
        return fake_metrics(d);
      },
      [&] {
        auto o = options_with(tmp.path("j.jsonl"));
        o.max_attempts = 2;
        return o;
      }());
  const auto second = resume.run(base, space);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(second.points_resumed, space.size());
  ASSERT_EQ(second.quarantined.size(), 1u);
}

TEST(DurableSweeper, TimeoutQuarantinesSlowPoint) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  const DurableSweeper sweeper(
      [&](const power::DesignParams& d) {
        if (d.adc_bits == 6 && d.lna_noise_vrms > 1e-5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        return fake_metrics(d);
      },
      [&] {
        auto o = options_with(tmp.path("j.jsonl"));
        o.point_timeout_s = 0.05;
        return o;
      }());
  const auto outcome = sweeper.run(base, space);
  EXPECT_EQ(outcome.results.size(), space.size() - 1);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_NE(outcome.quarantined[0].error.find("timeout"), std::string::npos);
  EXPECT_EQ(outcome.quarantined[0].attempts, 1u);  // timeouts do not retry
  // Let the abandoned evaluation drain before the test exits (leak checks).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

TEST(DurableSweeper, ProgressCountsResumedPoints) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto space = small_space();
  power::DesignParams base;
  (void)DurableSweeper(fake_metrics, options_with(path)).run(base, space);

  std::vector<std::size_t> seen;
  const DurableSweeper resumed(fake_metrics, options_with(path));
  (void)resumed.run(base, space, nullptr,
                    [&](std::size_t done, std::size_t total) {
                      EXPECT_EQ(total, space.size());
                      seen.push_back(done);
                    });
  ASSERT_EQ(seen.size(), 1u);  // everything adopted: one terminal callback
  EXPECT_EQ(seen[0], space.size());
}

// ---------------------------------------------------------------------------
// util/atomic_io

TEST(AtomicIo, AppendFileCreatesParentsAndAppends) {
  TempDir tmp;
  const auto path = tmp.path("nested/dir/file.txt");
  {
    AppendFile f(path);
    f.append_line("one");
    f.append_line("two");
  }
  {
    AppendFile f(path);  // reopen appends, not truncates
    f.append_line("three");
  }
  EXPECT_EQ(read_text(path), "one\ntwo\nthree\n");
}

TEST(AtomicIo, AtomicWriteReplacesAndReadsBack) {
  TempDir tmp;
  const auto path = tmp.path("sub/blob.bin");
  atomic_write_file(path, "first");
  atomic_write_file(path, "second");
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "second");
  EXPECT_FALSE(read_file(tmp.path("absent")).has_value());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicIo, TruncateFile) {
  TempDir tmp;
  const auto path = tmp.path("t.txt");
  atomic_write_file(path, "0123456789");
  truncate_file(path, 4);
  EXPECT_EQ(read_text(path), "0123");
  EXPECT_THROW(truncate_file(tmp.path("absent"), 0), Error);
}

// ---------------------------------------------------------------------------
// obs helpers the run layer leans on

TEST(ObsHelpers, JsonUnescapeInvertsEscape) {
  const std::string original = "line1\nline2\t\"quoted\" \\ done \x01";
  EXPECT_EQ(efficsense::obs::json_unescape(efficsense::obs::json_escape(original)),
            original);
}

TEST(ObsHelpers, CountersWithPrefix) {
  efficsense::obs::counter("runtest/alpha").inc(3);
  efficsense::obs::counter("runtest/beta").inc(1);
  efficsense::obs::counter("unrelated/gamma").inc();
  const auto got = efficsense::obs::Registry::instance().counters_with_prefix(
      "runtest/");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "runtest/alpha");
  EXPECT_EQ(got[0].second, 3u);
  EXPECT_EQ(got[1].first, "runtest/beta");
}

// ---------------------------------------------------------------------------
// Provenance events (telemetry)

TEST(Journal, EventRoundTrip) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.config_digest = 7;
  h.space_digest = 8;
  h.total_points = 6;
  {
    auto w = JournalWriter::create(path, h);
    PointEvent e;
    e.index = 3;
    e.status = PointStatus::Quarantined;
    e.attempts = 2;
    e.t_queue_s = 0.125;
    e.t_eval_start_s = 0.25;
    e.t_eval_end_s = 1.5;
    e.t_journal_s = 1.5625;
    e.block_sim_s = 0.75;
    e.decode_s = 0.3;
    e.detect_s = 0.125;
    e.cause = "flaky: \"quoted\"\nsecond line";
    w.append_event(e);
  }
  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->records.size(), 0u);
  ASSERT_EQ(back->events.size(), 1u);
  const auto& e = back->events[0];
  EXPECT_EQ(e.index, 3u);
  EXPECT_EQ(e.status, PointStatus::Quarantined);
  EXPECT_EQ(e.attempts, 2u);
  EXPECT_DOUBLE_EQ(e.t_queue_s, 0.125);
  EXPECT_DOUBLE_EQ(e.t_eval_start_s, 0.25);
  EXPECT_DOUBLE_EQ(e.t_eval_end_s, 1.5);
  EXPECT_DOUBLE_EQ(e.t_journal_s, 1.5625);
  EXPECT_DOUBLE_EQ(e.block_sim_s, 0.75);
  EXPECT_DOUBLE_EQ(e.decode_s, 0.3);
  EXPECT_DOUBLE_EQ(e.detect_s, 0.125);
  EXPECT_DOUBLE_EQ(e.eval_s(), 1.25);
  EXPECT_EQ(e.cause, "flaky: \"quoted\"\nsecond line");
  EXPECT_EQ(back->dropped_lines, 0u);
}

TEST(Journal, CorruptEventTailIsTruncated) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.total_points = 6;
  {
    auto w = JournalWriter::create(path, h);
    JournalRecord r;
    r.index = 0;
    r.payload = "row0";
    w.append(r);
    PointEvent e;
    e.index = 0;
    w.append_event(e);
  }
  // Flip one byte inside the event line (the last line): crc must reject it
  // and valid_bytes must point at the end of the record line.
  auto text = read_text(path);
  const auto last_line_start = text.rfind('\n', text.size() - 2) + 1;
  text[last_line_start + 10] ^= 0x20;
  atomic_write_file(path, text);

  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records.size(), 1u);
  EXPECT_EQ(back->events.size(), 0u);
  EXPECT_EQ(back->dropped_lines, 1u);
  EXPECT_EQ(back->valid_bytes, last_line_start);
}

TEST(Journal, PreTelemetryJournalsWithoutEventsStillRead) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  JournalHeader h;
  h.total_points = 6;
  {
    auto w = JournalWriter::create(path, h);
    JournalRecord r;
    r.index = 2;
    r.payload = "row2";
    w.append(r);
  }
  const auto back = read_journal(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->records.size(), 1u);
  EXPECT_EQ(back->events.size(), 0u);
  EXPECT_EQ(back->dropped_lines, 0u);
}

TEST(DurableSweeper, WritesProvenanceEventsAlongsideRecords) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto space = small_space();
  power::DesignParams base;
  const DurableSweeper sweeper(fake_metrics, options_with(path));
  (void)sweeper.run(base, space);

  const auto contents = read_journal(path);
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->records.size(), space.size());
  ASSERT_EQ(contents->events.size(), space.size());
  for (const auto& ev : contents->events) {
    EXPECT_EQ(ev.status, PointStatus::Ok);
    EXPECT_EQ(ev.attempts, 1u);
    EXPECT_TRUE(ev.cause.empty());
    EXPECT_GE(ev.eval_s(), 0.0);
    EXPECT_GE(ev.t_eval_start_s, ev.t_queue_s);
    EXPECT_GE(ev.t_journal_s, ev.t_eval_end_s);
  }
  // Resuming adopts every point and must not duplicate events.
  const DurableSweeper again(fake_metrics, options_with(path));
  const auto resumed = again.run(base, space);
  EXPECT_EQ(resumed.points_resumed, space.size());
  const auto after = read_journal(path);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->events.size(), space.size());
}

TEST(DurableSweeper, ProvenanceReportsEvaluatorStageTime) {
  // The events split each point's time across the sim, decode and detect
  // stages by reading the stage histograms the evaluator's schedule
  // records; a real evaluation must show up in each of them, whichever
  // solver reconstructs.
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto dataset = eeg::make_dataset(gen, 1, 1, 11);
  classify::DetectorConfig cfg;
  cfg.train.epochs = 10;
  const auto detector =
      classify::EpilepsyDetector::train(eeg::make_dataset(gen, 4, 4, 22), cfg);
  EvalOptions eo;
  eo.max_segments = 2;
  const Evaluator evaluator(power::TechnologyParams{}, &dataset, &detector,
                            eo);

  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto& solvers = cs::SolverRegistry::instance();
  DesignSpace space;
  space.add_axis("cs_m", {0, 75})
      .add_axis("solver", {double(solvers.code_of("omp")),
                           double(solvers.code_of("bsbl")),
                           double(solvers.code_of("amp"))});
  power::DesignParams base;
  const DurableSweeper sweeper(
      [&](const power::DesignParams& d) { return evaluator.evaluate(d); },
      options_with(path, evaluator.config_digest()));
  (void)sweeper.run(base, space);

  const auto contents = read_journal(path);
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->events.size(), space.size());
  for (const auto& ev : contents->events) {
    EXPECT_EQ(ev.status, PointStatus::Ok);
    EXPECT_GT(ev.block_sim_s, 0.0) << "point " << ev.index;
    EXPECT_GT(ev.detect_s, 0.0) << "point " << ev.index;
    // Only the CS points (cs_m = 75) reconstruct, each with its own solver.
    const bool cs_point = space.point(ev.index).at("cs_m") == 75;
    if (cs_point) {
      EXPECT_GT(ev.decode_s, 0.0) << "point " << ev.index;
    } else {
      EXPECT_EQ(ev.decode_s, 0.0) << "point " << ev.index;
    }
  }
}

TEST(DurableSweeper, NestedSweepOnPoolMatchesPoolless) {
  // One BSBL point on a pool: the sweep's only point opens its segments as
  // a job of its own, and the idle executors join it, so the point runs on
  // more than one chain. Segments are reduced in segment order, so the
  // result is byte-identical to the pool-less sweep.
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto dataset = eeg::make_dataset(gen, 2, 2, 11);
  classify::DetectorConfig cfg;
  cfg.train.epochs = 10;
  const auto detector =
      classify::EpilepsyDetector::train(eeg::make_dataset(gen, 4, 4, 22), cfg);
  const Evaluator evaluator(power::TechnologyParams{}, &dataset, &detector);

  DesignSpace space;
  space.add_axis("solver",
                 {double(cs::SolverRegistry::instance().code_of("bsbl"))});
  power::DesignParams base;
  base.cs_m = 75;
  const DurableSweeper sweeper(&evaluator, RunOptions{});
  auto& builds = obs::counter("eval/chain_builds");

  const auto serial_before = builds.value();
  const auto serial = sweeper.run(base, space);
  EXPECT_EQ(builds.value() - serial_before, 1u);

  ThreadPool pool(3);
  const auto pooled_before = builds.value();
  const auto pooled = sweeper.run(base, space, &pool);
  EXPECT_GT(builds.value() - pooled_before, 1u);
  EXPECT_LE(builds.value() - pooled_before, pool.size() + 1);

  ASSERT_EQ(serial.results.size(), 1u);
  ASSERT_EQ(pooled.results.size(), 1u);
  EXPECT_EQ(sweep_to_csv(pooled.results), sweep_to_csv(serial.results));
  EXPECT_EQ(pool.open_jobs(), 0u);
}

TEST(DurableSweeper, PointTimeoutThreadIsOffThePool) {
  // Inline, an evaluation runs on the sweep's pool; under a point timeout
  // it runs on a thread of its own, which must not reach the pool (an
  // abandoned evaluation would otherwise keep using it).
  ThreadPool pool(3);
  const auto space = small_space();
  power::DesignParams base;
  for (const double timeout_s : {0.0, 30.0}) {
    std::atomic<int> on_pool{0}, off_pool{0};
    RunOptions o;
    o.point_timeout_s = timeout_s;
    const DurableSweeper sweeper(
        [&](const power::DesignParams& d) {
          (ThreadPool::current() == &pool ? on_pool : off_pool).fetch_add(1);
          return fake_metrics(d);
        },
        o);
    const auto outcome = sweeper.run(base, space, &pool);
    EXPECT_EQ(outcome.results.size(), space.size());
    if (timeout_s > 0.0) {
      EXPECT_EQ(off_pool.load(), int(space.size()));
    } else {
      EXPECT_EQ(on_pool.load(), int(space.size()));
    }
  }
}

TEST(DurableSweeper, PoolUtilizationOfEachSweepOnSharedPoolAtMostOne) {
  // Two sweeps on one pool (as Study runs its baseline and CS sweeps): each
  // reads its own window's busy share, not the pool's lifetime busy time
  // over the second sweep's wall time.
  ThreadPool pool(3);
  const DurableSweeper sweeper(
      [](const power::DesignParams& d) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return fake_metrics(d);
      },
      RunOptions{});
  DesignSpace space;
  space.add_axis("adc_bits", {4, 5, 6, 7, 8, 9, 10, 11})
      .add_axis("lna_noise_vrms", {2e-6, 6e-6});
  power::DesignParams base;
  auto& utilization = obs::gauge("pool/utilization");
  for (int sweep = 0; sweep < 2; ++sweep) {
    utilization.set(-1.0);
    (void)sweeper.run(base, space, &pool);
    EXPECT_GT(utilization.value(), 0.0) << "sweep " << sweep;
    EXPECT_LE(utilization.value(), 1.0) << "sweep " << sweep;
  }
}

TEST(DurableSweeper, EventRecordingCanBeDisabled) {
  TempDir tmp;
  const auto path = tmp.path("j.jsonl");
  const auto space = small_space();
  power::DesignParams base;
  auto o = options_with(path);
  o.record_events = false;
  const DurableSweeper sweeper(fake_metrics, o);
  (void)sweeper.run(base, space);
  const auto contents = read_journal(path);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), space.size());
  EXPECT_EQ(contents->events.size(), 0u);
}

TEST(Merge, CarriesProvenanceEvents) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  std::vector<std::string> shard_paths;
  for (std::uint32_t s = 0; s < 3; ++s) {
    auto o = options_with(tmp.path("shard" + std::to_string(s) + ".jsonl"));
    o.shard = parse_shard(std::to_string(s) + "/3");
    shard_paths.push_back(o.journal_path);
    const DurableSweeper sweeper(fake_metrics, o);
    (void)sweeper.run(base, space);
  }
  (void)merge_journals(shard_paths, base, tmp.path("merged.jsonl"));
  const auto merged = read_journal(tmp.path("merged.jsonl"));
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->records.size(), space.size());
  ASSERT_EQ(merged->events.size(), space.size());
  // Every record keeps exactly its own event, in enumeration order.
  for (std::size_t i = 0; i < merged->events.size(); ++i) {
    EXPECT_EQ(merged->events[i].index, merged->records[i].index);
  }
}
