// Live run telemetry: status.json round-trip and staleness, TelemetryState
// frontier accounting, the StatusWriter heartbeat (atomic writes, final
// complete=true snapshot), the env knobs, and the sweep_status report
// (build_report aggregation, render_json schema stability).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "core/design_space.hpp"
#include "core/sweep.hpp"
#include "run/durable.hpp"
#include "run/journal.hpp"
#include "run/status_report.hpp"
#include "run/telemetry.hpp"
#include "util/atomic_io.hpp"
#include "util/error.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::run;

namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("efficsense_telemetry_test_" +
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

/// Scoped env var override, restored on destruction.
struct ScopedEnv {
  std::string name;
  std::string saved;
  bool had = false;
  ScopedEnv(const std::string& n, const char* value) : name(n) {
    if (const char* old = std::getenv(n.c_str())) {
      had = true;
      saved = old;
    }
    if (value) {
      ::setenv(n.c_str(), value, 1);
    } else {
      ::unsetenv(n.c_str());
    }
  }
  ~ScopedEnv() {
    if (had) {
      ::setenv(name.c_str(), saved.c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

DesignSpace small_space() {
  DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 6e-6, 20e-6})
      .add_axis("adc_bits", {6, 8});
  return space;
}

EvalMetrics fake_metrics(const power::DesignParams& d) {
  EvalMetrics m;
  m.snr_db = 20.0 + 1e6 * d.lna_noise_vrms + d.adc_bits;
  m.accuracy = 0.9 + 0.001 * d.adc_bits;
  m.power_w = 1e-6 * d.adc_bits + d.lna_noise_vrms;
  m.area_unit_caps = 100.0 * d.adc_bits;
  m.segments_evaluated = 4;
  m.power_breakdown.add("lna", 0.5 * m.power_w);
  m.area_breakdown.add("adc", m.area_unit_caps);
  return m;
}

StatusSnapshot sample_status() {
  StatusSnapshot s;
  s.updated_unix_s = 1723000000.25;
  s.interval_s = 0.5;
  s.journal_path = "runs/sweep \"a\".jsonl";
  s.shard = "1/3";
  s.total_points = 100;
  s.owned = 33;
  s.committed = 20;
  s.frontier = 18;
  s.resumed = 5;
  s.evaluated = 15;
  s.quarantined = 2;
  s.retried = 1;
  s.complete = false;
  s.elapsed_s = 12.5;
  s.throughput_pps = 1.2;
  s.throughput_ewma_pps = 1.0 / 3.0;
  s.eta_s = 10.833;
  s.rss_bytes = 123456789.0;
  StatusSnapshot::Stage stage;
  stage.name = "block_sim";
  stage.stats.count = 15;
  stage.stats.sum = 7.5;
  stage.stats.p50 = 0.4;
  stage.stats.p90 = 0.9;
  stage.stats.p99 = 1.1;
  s.stages.push_back(stage);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// StatusSnapshot JSON round-trip

TEST(Status, JsonRoundTrip) {
  const auto s = sample_status();
  const auto json = status_to_json(s);
  EXPECT_EQ(json.back(), '\n');
  const auto back = parse_status(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, s.version);
  EXPECT_DOUBLE_EQ(back->updated_unix_s, s.updated_unix_s);
  EXPECT_DOUBLE_EQ(back->interval_s, s.interval_s);
  EXPECT_EQ(back->journal_path, s.journal_path);
  EXPECT_EQ(back->shard, s.shard);
  EXPECT_EQ(back->total_points, s.total_points);
  EXPECT_EQ(back->owned, s.owned);
  EXPECT_EQ(back->committed, s.committed);
  EXPECT_EQ(back->frontier, s.frontier);
  EXPECT_EQ(back->resumed, s.resumed);
  EXPECT_EQ(back->evaluated, s.evaluated);
  EXPECT_EQ(back->quarantined, s.quarantined);
  EXPECT_EQ(back->retried, s.retried);
  EXPECT_EQ(back->complete, s.complete);
  EXPECT_DOUBLE_EQ(back->elapsed_s, s.elapsed_s);
  EXPECT_DOUBLE_EQ(back->throughput_pps, s.throughput_pps);
  EXPECT_DOUBLE_EQ(back->throughput_ewma_pps, s.throughput_ewma_pps);
  EXPECT_DOUBLE_EQ(back->eta_s, s.eta_s);
  EXPECT_DOUBLE_EQ(back->rss_bytes, s.rss_bytes);
  ASSERT_EQ(back->stages.size(), 1u);
  EXPECT_EQ(back->stages[0].name, "block_sim");
  EXPECT_EQ(back->stages[0].stats.count, 15u);
  EXPECT_DOUBLE_EQ(back->stages[0].stats.sum, 7.5);
  EXPECT_DOUBLE_EQ(back->stages[0].stats.p50, 0.4);
  EXPECT_DOUBLE_EQ(back->stages[0].stats.p90, 0.9);
  EXPECT_DOUBLE_EQ(back->stages[0].stats.p99, 1.1);
  // The re-serialized form is byte-identical: downstream tools can compare
  // an embedded copy against the original file verbatim.
  EXPECT_EQ(status_to_json(*back), json);
}

TEST(Status, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_status("").has_value());
  EXPECT_FALSE(parse_status("not json at all").has_value());
  EXPECT_FALSE(parse_status("{\"version\":1}").has_value());
}

TEST(Status, StalenessDetection) {
  auto s = sample_status();
  s.interval_s = 1.0;
  s.updated_unix_s = 1000.0;
  s.complete = false;
  // Fresh: age below 3*interval + 1s of slack.
  EXPECT_FALSE(status_is_stale(s, 1003.5));
  // Silent past the threshold: the writer died without finishing.
  EXPECT_TRUE(status_is_stale(s, 1004.5));
  // A complete run is never stale, no matter how old.
  s.complete = true;
  EXPECT_FALSE(status_is_stale(s, 1.0e9));
}

TEST(Status, PathResolutionAndEnvKnobs) {
  {
    ScopedEnv env("EFFICSENSE_STATUS", nullptr);
    EXPECT_EQ(status_path_for("runs/s.jsonl"), "runs/s.jsonl.status.json");
    EXPECT_EQ(status_path_for(""), "");
  }
  {
    ScopedEnv env("EFFICSENSE_STATUS", "custom/st.json");
    EXPECT_EQ(status_path_for("runs/s.jsonl"), "custom/st.json");
  }
  for (const char* off : {"off", "none", "0"}) {
    ScopedEnv env("EFFICSENSE_STATUS", off);
    EXPECT_EQ(status_path_for("runs/s.jsonl"), "");
  }
  {
    ScopedEnv env("EFFICSENSE_STATUS_INTERVAL", nullptr);
    EXPECT_DOUBLE_EQ(status_interval_s_from_env(), 5.0);
  }
  {
    ScopedEnv env("EFFICSENSE_STATUS_INTERVAL", "0.25");
    EXPECT_DOUBLE_EQ(status_interval_s_from_env(), 0.25);
  }
  {
    // Clamped to the floor, and junk falls back to the default.
    ScopedEnv env("EFFICSENSE_STATUS_INTERVAL", "0.0001");
    EXPECT_DOUBLE_EQ(status_interval_s_from_env(), 0.05);
  }
  {
    ScopedEnv env("EFFICSENSE_STATUS_INTERVAL", "banana");
    EXPECT_DOUBLE_EQ(status_interval_s_from_env(), 5.0);
  }
}

// ---------------------------------------------------------------------------
// TelemetryState

TEST(TelemetryState, FrontierIsContiguousPrefix) {
  TelemetryState st;
  JournalHeader h;
  h.total_points = 10;
  st.configure(h, 5, "j.jsonl");
  EXPECT_EQ(st.committed(), 0u);
  EXPECT_EQ(st.frontier(), 0u);

  // Out-of-order settles: the frontier only advances over the prefix.
  st.on_settled(2, false, false, 1);
  EXPECT_EQ(st.committed(), 1u);
  EXPECT_EQ(st.frontier(), 0u);
  st.on_settled(0, false, false, 1);
  EXPECT_EQ(st.frontier(), 1u);
  st.on_settled(1, false, false, 2);  // retried
  EXPECT_EQ(st.committed(), 3u);
  EXPECT_EQ(st.frontier(), 3u);  // 0,1,2 now contiguous
  st.on_settled(4, true, true, 1);  // adopted quarantined point
  EXPECT_EQ(st.committed(), 4u);
  EXPECT_EQ(st.frontier(), 3u);
  st.on_settled(3, false, false, 1);
  EXPECT_EQ(st.frontier(), 5u);

  const auto snap = st.snapshot(0.5);
  EXPECT_EQ(snap.total_points, 10u);
  EXPECT_EQ(snap.owned, 5u);
  EXPECT_EQ(snap.committed, 5u);
  EXPECT_EQ(snap.frontier, 5u);
  EXPECT_EQ(snap.resumed, 1u);
  EXPECT_EQ(snap.evaluated, 4u);
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.retried, 1u);
  EXPECT_FALSE(snap.complete);
  EXPECT_DOUBLE_EQ(snap.interval_s, 0.5);
  EXPECT_EQ(snap.journal_path, "j.jsonl");
  EXPECT_GT(snap.rss_bytes, 0.0);
  // The four stage rows are always present, even before any observation.
  ASSERT_EQ(snap.stages.size(), 4u);
  EXPECT_EQ(snap.stages[0].name, "block_sim");
  EXPECT_EQ(snap.stages[1].name, "decode");
  EXPECT_EQ(snap.stages[2].name, "detect");
  EXPECT_EQ(snap.stages[3].name, "point");

  st.mark_complete();
  EXPECT_TRUE(st.snapshot(0.5).complete);
}

TEST(TelemetryState, BurstOfSettlementsKeepsEwmaNearMeanRate) {
  // A coordinator scan, or pool threads finishing together, settles points
  // microseconds apart. The EWMA must count them as points over elapsed
  // time, not take 1/dt of each.
  TelemetryState st;
  JournalHeader h;
  h.total_points = 24;
  st.configure(h, 24, "j.jsonl");
  std::this_thread::sleep_for(std::chrono::seconds(1));
  for (std::uint64_t k = 0; k < 12; ++k) st.on_settled(k, false, false, 1);

  const auto snap = st.snapshot(0.5);
  const double mean_pps = 12.0 / snap.elapsed_s;
  EXPECT_GT(snap.throughput_ewma_pps, mean_pps / 2.0);
  EXPECT_LT(snap.throughput_ewma_pps, mean_pps * 2.0);
  // ETA follows: 12 points left at about the mean rate.
  EXPECT_GT(snap.eta_s, 0.5 * 12.0 / mean_pps);
  EXPECT_LT(snap.eta_s, 2.0 * 12.0 / mean_pps);
}

// ---------------------------------------------------------------------------
// StatusWriter heartbeat

TEST(StatusWriter, WritesImmediatelyPeriodicallyAndOnStop) {
  TempDir tmp;
  const auto path = tmp.path("st.json");
  TelemetryState st;
  JournalHeader h;
  h.total_points = 6;
  st.configure(h, 6, tmp.path("j.jsonl"));
  {
    StatusWriter writer(path, 0.05, &st);
    // The first write happens at construction.
    const auto first = read_status_file(path);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->committed, 0u);
    EXPECT_FALSE(first->complete);

    for (std::uint64_t k = 0; k < 6; ++k) {
      st.on_settled(k, false, false, 1);
    }
    // The timer picks the progress up without an explicit write_now.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::uint64_t seen = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      if (const auto s = read_status_file(path); s && s->committed == 6) {
        seen = s->committed;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(seen, 6u);

    st.mark_complete();
    writer.stop();  // final write; destructor stop() must stay idempotent
  }
  const auto last = read_status_file(path);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->complete);
  EXPECT_EQ(last->committed, 6u);
  EXPECT_EQ(last->frontier, 6u);
  EXPECT_FALSE(status_is_stale(*last, last->updated_unix_s));
}

// ---------------------------------------------------------------------------
// End to end through the DurableSweeper

TEST(DurableSweeper, HeartbeatEndsCompleteWithFrontierAtOwned) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  RunOptions o;
  o.journal_path = tmp.path("sweep.jsonl");
  o.config_digest = 42;
  o.status_interval_s = 0.05;
  const DurableSweeper sweeper(fake_metrics, o);
  (void)sweeper.run(base, space);

  const auto status = read_status_file(o.journal_path + ".status.json");
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->complete);
  EXPECT_EQ(status->total_points, space.size());
  EXPECT_EQ(status->owned, space.size());
  EXPECT_EQ(status->committed, space.size());
  EXPECT_EQ(status->frontier, space.size());
  EXPECT_EQ(status->quarantined, 0u);
  EXPECT_EQ(status->shard, "0/1");
}

TEST(DurableSweeper, StatusCanBeDisabledViaEnv) {
  TempDir tmp;
  ScopedEnv env("EFFICSENSE_STATUS", "off");
  const auto space = small_space();
  power::DesignParams base;
  RunOptions o;
  o.journal_path = tmp.path("sweep.jsonl");
  o.config_digest = 42;
  const DurableSweeper sweeper(fake_metrics, o);
  (void)sweeper.run(base, space);
  EXPECT_FALSE(fs::exists(o.journal_path + ".status.json"));
}

// ---------------------------------------------------------------------------
// sweep_status report

TEST(Report, AggregatesJournalAndHeartbeat) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  RunOptions o;
  o.journal_path = tmp.path("sweep.jsonl");
  o.config_digest = 42;
  o.status_interval_s = 0.05;
  const DurableSweeper sweeper(fake_metrics, o);
  (void)sweeper.run(base, space);

  const auto report = build_report({o.journal_path});
  EXPECT_EQ(report.total_points, space.size());
  EXPECT_EQ(report.owned, space.size());
  EXPECT_EQ(report.committed, space.size());
  EXPECT_EQ(report.frontier, space.size());
  EXPECT_EQ(report.events, space.size());
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.stale);
  EXPECT_TRUE(report.quarantined_points.empty());
  ASSERT_EQ(report.journals.size(), 1u);
  EXPECT_TRUE(report.journals[0].status_present);
  EXPECT_TRUE(report.journals[0].status_complete);
  ASSERT_TRUE(report.status.has_value());
  EXPECT_TRUE(report.status->complete);
  EXPECT_FALSE(report.slowest.empty());
  ASSERT_FALSE(report.stages.empty());
  EXPECT_EQ(report.stages[0].name, "block_sim");

  // Both renderers accept the report; the text view names the state.
  const auto text = render_text(report);
  EXPECT_NE(text.find("complete"), std::string::npos);
  EXPECT_NE(text.find("6/6"), std::string::npos);
}

TEST(Report, JsonSchemaIsStable) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  RunOptions o;
  o.journal_path = tmp.path("sweep.jsonl");
  o.config_digest = 42;
  o.status_interval_s = 0.05;
  const DurableSweeper sweeper(fake_metrics, o);
  (void)sweeper.run(base, space);

  const auto json = render_json(build_report({o.journal_path}));
  // Key presence is the contract CI scripts parse against.
  for (const char* key :
       {"\"schema_version\":1", "\"generated_unix_s\"", "\"complete\":true",
        "\"stale\":false", "\"total_points\"", "\"owned\"", "\"committed\"",
        "\"frontier\"", "\"quarantined\"", "\"retried\"", "\"events\"",
        "\"span_s\"", "\"throughput_pps\"", "\"trend_pps\"", "\"stages\"",
        "\"slowest\"", "\"quarantined_points\"", "\"journals\"",
        "\"status\"", "\"block_sim\"", "\"decode\"", "\"detect\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(json.back(), '\n');

  // The embedded heartbeat is the status.json file verbatim-equivalent.
  const auto file = read_status_file(o.journal_path + ".status.json");
  ASSERT_TRUE(file.has_value());
  auto embedded = status_to_json(*file);
  embedded.pop_back();  // the embedded copy has no trailing newline
  EXPECT_NE(json.find(embedded), std::string::npos);
}

TEST(Report, MissingJournalThrows) {
  TempDir tmp;
  EXPECT_THROW(build_report({tmp.path("absent.jsonl")}), Error);
}

TEST(Report, MultiShardAggregation) {
  TempDir tmp;
  const auto space = small_space();
  power::DesignParams base;
  std::vector<std::string> paths;
  for (std::uint32_t s = 0; s < 3; ++s) {
    RunOptions o;
    o.journal_path = tmp.path("shard" + std::to_string(s) + ".jsonl");
    o.config_digest = 42;
    o.shard = parse_shard(std::to_string(s) + "/3");
    o.status_interval_s = 0.05;
    paths.push_back(o.journal_path);
    const DurableSweeper sweeper(fake_metrics, o);
    (void)sweeper.run(base, space);
  }
  const auto report = build_report(paths);
  EXPECT_EQ(report.journals.size(), 3u);
  EXPECT_EQ(report.total_points, space.size());
  EXPECT_EQ(report.owned, space.size());
  EXPECT_EQ(report.committed, space.size());
  EXPECT_TRUE(report.complete);
  const auto text = render_text(report);
  EXPECT_NE(text.find("0/3"), std::string::npos);
  EXPECT_NE(text.find("2/3"), std::string::npos);
}
