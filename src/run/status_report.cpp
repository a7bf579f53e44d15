#include "run/status_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <sstream>

#include "obs/sidecar.hpp"
#include "obs/snapshot.hpp"
#include "run/fleet.hpp"
#include "util/error.hpp"

namespace efficsense::run {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Human duration: "412us", "35.2ms", "1.84s", "3m12s".
std::string fmt_seconds(double s) {
  if (s < 0.0) s = 0.0;
  if (s < 1e-3) return fmt_fixed(s * 1e6, 0) + "us";
  if (s < 1.0) return fmt_fixed(s * 1e3, 1) + "ms";
  if (s < 120.0) return fmt_fixed(s, 2) + "s";
  const auto total = static_cast<long>(s);
  return std::to_string(total / 60) + "m" + std::to_string(total % 60) + "s";
}

std::string fmt_bytes(double b) {
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    return fmt_fixed(b / (1024.0 * 1024.0 * 1024.0), 2) + " GiB";
  }
  if (b >= 1024.0 * 1024.0) return fmt_fixed(b / (1024.0 * 1024.0), 1) + " MiB";
  return fmt_fixed(b / 1024.0, 1) + " KiB";
}

/// Exact q-quantile of a sorted sample (linear interpolation between order
/// statistics) — events carry real per-point values, so no bucketing here.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

StageRow make_stage(std::string name, std::vector<double> values,
                    double share_denominator) {
  StageRow row;
  row.name = std::move(name);
  row.count = values.size();
  for (const double v : values) row.total_s += v;
  if (!values.empty()) {
    row.mean_s = row.total_s / static_cast<double>(values.size());
    std::sort(values.begin(), values.end());
    row.p50_s = exact_quantile(values, 0.50);
    row.p90_s = exact_quantile(values, 0.90);
    row.p99_s = exact_quantile(values, 0.99);
  }
  if (share_denominator > 0.0) row.share = row.total_s / share_denominator;
  return row;
}

/// Points a shard owns out of `total` under round-robin ownership.
std::uint64_t owned_count(const Shard& shard, std::uint64_t total) {
  if (shard.whole()) return total;
  if (total <= shard.index) return 0;
  return (total - 1 - shard.index) / shard.count + 1;
}

/// Owned-enumeration position of an owned index (round-robin slices are
/// arithmetic progressions, so this is a plain division).
std::uint64_t owned_position(const Shard& shard, std::uint64_t index) {
  return shard.whole() ? index : index / shard.count;
}

std::string point_row_json(const PointRow& p) {
  std::ostringstream os;
  os << "{\"index\":" << p.index << ",\"eval_s\":" << fmt_double(p.eval_s)
     << ",\"attempts\":" << p.attempts << ",\"status\":\""
     << (p.quarantined ? "quarantined" : "ok") << "\",\"cause\":\""
     << obs::json_escape(p.cause) << "\"}";
  return os.str();
}

}  // namespace

SpoolDiscovery discover_spool(const std::string& dir) {
  namespace fs = std::filesystem;
  SpoolDiscovery out;
  const auto paths = spool_paths(dir);
  std::error_code ec;
  if (fs::is_directory(paths.workers_dir, ec)) {
    out.journals = discover_worker_journals(dir);
    if (fs::exists(paths.coordinator_status, ec)) {
      out.status_path = paths.coordinator_status;
    }
  } else {
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() == ".jsonl") {
        out.journals.push_back(entry.path().string());
      }
    }
    std::sort(out.journals.begin(), out.journals.end());
  }
  EFF_REQUIRE(!out.journals.empty(), "no journals found under " + dir);
  return out;
}

SweepReport build_report(const std::vector<std::string>& journal_paths,
                         const std::string& status_path) {
  EFF_REQUIRE(!journal_paths.empty(), "status report needs at least one journal");

  SweepReport report;
  report.generated_unix_s = obs::unix_now_s();

  std::vector<JournalContents> journals;
  journals.reserve(journal_paths.size());
  for (const auto& path : journal_paths) {
    auto j = read_journal(path);
    EFF_REQUIRE(j.has_value(), "missing or unreadable journal: " + path);
    journals.push_back(std::move(*j));
  }
  report.header = journals.front().header;
  for (std::size_t i = 1; i < journals.size(); ++i) {
    EFF_REQUIRE(journals[i].header.compatible_with(report.header),
                "journal " + journal_paths[i] + " disagrees with " +
                    journal_paths.front() +
                    " on configuration; refusing to report on both");
  }
  report.total_points = report.header.total_points;

  // Per-event eval/stage samples pooled across shards, plus the freshest
  // heartbeat. Events are matched back to points for the slowest table.
  std::vector<double> eval_vals;
  std::vector<std::vector<double>> stage_vals(std::size(kEvalStages));
  std::vector<PointRow> event_rows;
  std::map<std::uint64_t, const PointEvent*> last_event_by_index;
  double best_heartbeat = -1.0;

  for (std::size_t j = 0; j < journals.size(); ++j) {
    const auto& contents = journals[j];
    const Shard shard = contents.header.shard;

    JournalSummary summary;
    summary.path = journal_paths[j];
    summary.shard = shard.to_string();
    summary.owned = owned_count(shard, report.total_points);
    summary.events = contents.events.size();
    summary.dropped_lines = contents.dropped_lines;

    std::vector<char> settled(summary.owned, 0);
    for (const auto& rec : contents.records) {
      const auto pos = owned_position(shard, rec.index);
      if (pos >= settled.size() || settled[pos]) continue;
      settled[pos] = 1;
      ++summary.records;
      if (rec.status == PointStatus::Quarantined) {
        ++summary.quarantined;
        PointRow row;
        row.index = rec.index;
        row.attempts = rec.attempts;
        row.quarantined = true;
        row.cause = rec.payload;
        report.quarantined_points.push_back(std::move(row));
      }
      if (rec.attempts > 1) ++report.retried;
    }
    while (summary.frontier < settled.size() && settled[summary.frontier]) {
      ++summary.frontier;
    }

    for (const auto& ev : contents.events) {
      eval_vals.push_back(ev.eval_s());
      for (std::size_t i = 0; i < stage_vals.size(); ++i) {
        stage_vals[i].push_back(ev.*kEvalStages[i].seconds);
      }
      PointRow row;
      row.index = ev.index;
      row.eval_s = ev.eval_s();
      row.attempts = ev.attempts;
      row.quarantined = ev.status == PointStatus::Quarantined;
      row.cause = ev.cause;
      event_rows.push_back(std::move(row));
      last_event_by_index[ev.index] = &ev;
    }

    const std::string spath =
        !status_path.empty() ? status_path : journal_paths[j] + ".status.json";
    if (const auto snap = read_status_file(spath)) {
      summary.status_present = true;
      summary.status_complete = snap->complete;
      summary.status_stale =
          status_is_stale(*snap, report.generated_unix_s);
      if (snap->updated_unix_s > best_heartbeat) {
        best_heartbeat = snap->updated_unix_s;
        report.status = *snap;
      }
    }

    report.owned += summary.owned;
    report.committed += summary.records;
    report.frontier += summary.frontier;
    report.quarantined += summary.quarantined;
    report.events += summary.events;
    report.journals.push_back(std::move(summary));
  }

  // A fleet spool: several whole-shard worker journals over the same grid,
  // overlapping wherever leases were stolen or reassigned. Summing per-shard
  // counts would double-count those overlaps, so aggregate by the union of
  // unique indices instead — canonical (path-sorted) order decides which
  // journal a duplicate counts for, exactly like merge_journals.
  const bool fleet =
      journals.size() > 1 &&
      std::all_of(journals.begin(), journals.end(),
                  [](const JournalContents& c) {
                    return c.header.shard.whole();
                  });
  if (fleet) {
    std::vector<std::size_t> canonical(journals.size());
    for (std::size_t j = 0; j < canonical.size(); ++j) canonical[j] = j;
    std::sort(canonical.begin(), canonical.end(),
              [&journal_paths](std::size_t a, std::size_t b) {
                return journal_paths[a] < journal_paths[b];
              });
    std::vector<char> settled(report.total_points, 0);
    report.owned = report.total_points;
    report.committed = 0;
    report.frontier = 0;
    report.quarantined = 0;
    report.retried = 0;
    report.quarantined_points.clear();
    for (const std::size_t j : canonical) {
      for (const auto& rec : journals[j].records) {
        if (rec.index >= report.total_points || settled[rec.index]) continue;
        settled[rec.index] = 1;
        ++report.committed;
        if (rec.status == PointStatus::Quarantined) {
          ++report.quarantined;
          PointRow row;
          row.index = rec.index;
          row.attempts = rec.attempts;
          row.quarantined = true;
          row.cause = rec.payload;
          report.quarantined_points.push_back(std::move(row));
        }
        if (rec.attempts > 1) ++report.retried;
      }
    }
    while (report.frontier < report.total_points &&
           settled[report.frontier]) {
      ++report.frontier;
    }
    // A worker owns exactly what it committed; the per-journal frontier
    // (contiguous prefix of the whole grid) is meaningless for one worker.
    for (auto& summary : report.journals) {
      summary.owned = summary.records;
      summary.frontier = summary.records;
    }
  }

  report.complete = report.owned > 0 && report.committed >= report.owned;
  report.stale = report.status.has_value() && !report.status->complete &&
                 status_is_stale(*report.status, report.generated_unix_s);

  // Fill eval times for quarantined rows from their last event.
  for (auto& row : report.quarantined_points) {
    const auto it = last_event_by_index.find(row.index);
    if (it != last_event_by_index.end()) row.eval_s = it->second->eval_s();
  }
  std::sort(report.quarantined_points.begin(), report.quarantined_points.end(),
            [](const PointRow& a, const PointRow& b) {
              return a.index < b.index;
            });

  if (!event_rows.empty()) {
    // Span + trend over each run's journal-append clock. Shards run
    // concurrently on their own clocks, so the pooled rate is approximate —
    // exact for the single-journal case.
    double t_min = event_rows.empty() ? 0.0 : 1e300;
    double t_max = 0.0;
    for (const auto& contents : journals) {
      for (const auto& ev : contents.events) {
        t_min = std::min(t_min, ev.t_journal_s);
        t_max = std::max(t_max, ev.t_journal_s);
      }
    }
    report.span_s = std::max(0.0, t_max - t_min);
    if (report.span_s > 1e-9) {
      report.throughput_pps =
          static_cast<double>(report.events) / report.span_s;
      const std::size_t slices =
          std::min<std::size_t>(20, std::max<std::size_t>(1, report.events));
      report.trend_pps.assign(slices, 0.0);
      const double width = report.span_s / static_cast<double>(slices);
      for (const auto& contents : journals) {
        for (const auto& ev : contents.events) {
          auto slot = static_cast<std::size_t>((ev.t_journal_s - t_min) / width);
          slot = std::min(slot, slices - 1);
          report.trend_pps[slot] += 1.0 / width;
        }
      }
    }

    double total_eval = 0.0;
    for (const double v : eval_vals) total_eval += v;
    for (std::size_t i = 0; i < stage_vals.size(); ++i) {
      report.stages.push_back(make_stage(
          kEvalStages[i].name, std::move(stage_vals[i]), total_eval));
    }
    report.stages.push_back(make_stage("point", std::move(eval_vals), 0.0));

    std::sort(event_rows.begin(), event_rows.end(),
              [](const PointRow& a, const PointRow& b) {
                return a.eval_s > b.eval_s;
              });
    const std::size_t keep = std::min<std::size_t>(5, event_rows.size());
    report.slowest.assign(event_rows.begin(), event_rows.begin() + keep);
  }

  return report;
}

std::string render_text(const SweepReport& r) {
  std::ostringstream os;
  os << "EffiCSense sweep status";
  if (r.journals.size() == 1) {
    os << " — " << r.journals.front().path;
  } else {
    os << " — " << r.journals.size() << " shard journals";
  }
  os << "\n";

  // State line: finished / live / dead, from journal + heartbeat evidence.
  if (r.complete) {
    os << "state: complete";
  } else if (r.stale) {
    os << "state: STALE — heartbeat stopped "
       << fmt_seconds(r.generated_unix_s - r.status->updated_unix_s)
       << " ago without completing (run died or hung)";
  } else if (r.status.has_value() && !r.status->complete) {
    os << "state: running (heartbeat "
       << fmt_seconds(r.generated_unix_s - r.status->updated_unix_s)
       << " old)";
  } else {
    os << "state: incomplete (no live heartbeat)";
  }
  os << "\n";

  const double fraction =
      r.owned > 0 ? static_cast<double>(r.committed) / static_cast<double>(r.owned)
                  : 0.0;
  constexpr int kBarWidth = 30;
  const int filled = static_cast<int>(std::lround(fraction * kBarWidth));
  os << "[";
  for (int i = 0; i < kBarWidth; ++i) os << (i < filled ? '#' : '.');
  os << "] " << fmt_fixed(fraction * 100.0, 1) << "%  committed "
     << r.committed << "/" << r.owned << "  frontier " << r.frontier
     << "  quarantined " << r.quarantined << "  retried " << r.retried
     << "\n";

  if (r.status.has_value()) {
    const auto& s = *r.status;
    os << "run: shard " << s.shard << " · elapsed " << fmt_seconds(s.elapsed_s)
       << " · " << fmt_fixed(s.throughput_pps, 2) << " pts/s (ewma "
       << fmt_fixed(s.throughput_ewma_pps, 2) << ")";
    if (s.eta_s > 0.0) os << " · eta " << fmt_seconds(s.eta_s);
    if (s.rss_bytes > 0.0) os << " · rss " << fmt_bytes(s.rss_bytes);
    os << "\n";
  }

  if (r.events > 0) {
    os << "events: " << r.events << " over " << fmt_seconds(r.span_s) << " ("
       << fmt_fixed(r.throughput_pps, 2) << " pts/s)\n";
    if (!r.trend_pps.empty()) {
      static const char* kBlocks[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
      double peak = 0.0;
      for (const double v : r.trend_pps) peak = std::max(peak, v);
      os << "trend: [";
      for (const double v : r.trend_pps) {
        const int level =
            peak > 0.0 ? static_cast<int>(std::lround(v / peak * 7.0)) : 0;
        os << kBlocks[std::max(0, std::min(7, level))];
      }
      os << "] peak " << fmt_fixed(peak, 2) << " pts/s\n";
    }
    os << "stages (per point):\n";
    for (const auto& st : r.stages) {
      os << "  " << st.name;
      for (std::size_t pad = st.name.size(); pad < 10; ++pad) os << ' ';
      os << "n=" << st.count << "  total " << fmt_seconds(st.total_s)
         << "  mean " << fmt_seconds(st.mean_s) << "  p50 "
         << fmt_seconds(st.p50_s) << "  p90 " << fmt_seconds(st.p90_s)
         << "  p99 " << fmt_seconds(st.p99_s);
      if (st.share > 0.0) os << "  " << fmt_fixed(st.share * 100.0, 1) << "%";
      os << "\n";
    }
    if (!r.slowest.empty()) {
      os << "slowest points:\n";
      for (const auto& p : r.slowest) {
        os << "  #" << p.index << "  " << fmt_seconds(p.eval_s) << "  "
           << p.attempts << (p.attempts == 1 ? " attempt" : " attempts");
        if (p.quarantined) os << "  QUARANTINED";
        if (!p.cause.empty()) os << "  (" << p.cause << ")";
        os << "\n";
      }
    }
  } else {
    os << "events: none (journal written by a pre-telemetry run)\n";
  }

  if (r.quarantined_points.empty()) {
    os << "quarantined: none\n";
  } else {
    os << "quarantined points:\n";
    for (const auto& p : r.quarantined_points) {
      os << "  #" << p.index << "  attempts " << p.attempts << "  "
         << p.cause << "\n";
    }
  }

  if (r.journals.size() > 1) {
    os << "shards:\n";
    for (const auto& j : r.journals) {
      os << "  " << j.shard << "  " << j.records << "/" << j.owned
         << " committed  frontier " << j.frontier << "  events " << j.events;
      if (j.status_present) {
        os << (j.status_complete ? "  status: complete"
               : j.status_stale  ? "  status: STALE"
                                 : "  status: live");
      }
      if (j.dropped_lines > 0) {
        os << "  dropped_lines " << j.dropped_lines;
      }
      os << "  (" << j.path << ")\n";
    }
  }
  return os.str();
}

std::string render_json(const SweepReport& r) {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"generated_unix_s\":"
     << fmt_double(r.generated_unix_s) << ",\"journals\":[";
  for (std::size_t i = 0; i < r.journals.size(); ++i) {
    const auto& j = r.journals[i];
    if (i > 0) os << ",";
    os << "{\"path\":\"" << obs::json_escape(j.path) << "\",\"shard\":\""
       << obs::json_escape(j.shard) << "\",\"owned\":" << j.owned
       << ",\"records\":" << j.records << ",\"frontier\":" << j.frontier
       << ",\"events\":" << j.events << ",\"quarantined\":" << j.quarantined
       << ",\"dropped_lines\":" << j.dropped_lines << ",\"status_present\":"
       << (j.status_present ? "true" : "false") << ",\"status_complete\":"
       << (j.status_complete ? "true" : "false") << ",\"status_stale\":"
       << (j.status_stale ? "true" : "false") << "}";
  }
  os << "],\"total_points\":" << r.total_points << ",\"owned\":" << r.owned
     << ",\"committed\":" << r.committed << ",\"frontier\":" << r.frontier
     << ",\"quarantined\":" << r.quarantined << ",\"retried\":" << r.retried
     << ",\"events\":" << r.events << ",\"complete\":"
     << (r.complete ? "true" : "false") << ",\"stale\":"
     << (r.stale ? "true" : "false")
     << ",\"span_s\":" << fmt_double(r.span_s)
     << ",\"throughput_pps\":" << fmt_double(r.throughput_pps)
     << ",\"trend_pps\":[";
  for (std::size_t i = 0; i < r.trend_pps.size(); ++i) {
    if (i > 0) os << ",";
    os << fmt_double(r.trend_pps[i]);
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const auto& st = r.stages[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << obs::json_escape(st.name)
       << "\",\"count\":" << st.count
       << ",\"total_s\":" << fmt_double(st.total_s)
       << ",\"mean_s\":" << fmt_double(st.mean_s)
       << ",\"p50_s\":" << fmt_double(st.p50_s)
       << ",\"p90_s\":" << fmt_double(st.p90_s)
       << ",\"p99_s\":" << fmt_double(st.p99_s)
       << ",\"share\":" << fmt_double(st.share) << "}";
  }
  os << "],\"slowest\":[";
  for (std::size_t i = 0; i < r.slowest.size(); ++i) {
    if (i > 0) os << ",";
    os << point_row_json(r.slowest[i]);
  }
  os << "],\"quarantined_points\":[";
  for (std::size_t i = 0; i < r.quarantined_points.size(); ++i) {
    if (i > 0) os << ",";
    os << point_row_json(r.quarantined_points[i]);
  }
  os << "],\"status\":";
  if (r.status.has_value()) {
    // status_to_json ends with a newline for file writes; embed without it.
    std::string inner = status_to_json(*r.status);
    while (!inner.empty() && inner.back() == '\n') inner.pop_back();
    os << inner;
  } else {
    os << "null";
  }
  os << "}\n";
  return os.str();
}

}  // namespace efficsense::run
