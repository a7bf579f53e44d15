#include "core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace efficsense::core {

Sweeper::Sweeper(const Evaluator* evaluator) : evaluator_(evaluator) {
  EFF_REQUIRE(evaluator_ != nullptr, "sweeper needs an evaluator");
}

std::vector<SweepResult> Sweeper::run(
    const power::DesignParams& base, const DesignSpace& space,
    ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t)>& progress) const {
  using clock = std::chrono::steady_clock;
  EFFICSENSE_SPAN("sweep/run");
  const std::size_t total = space.size();
  std::vector<SweepResult> results(total);
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  std::size_t last_reported = 0;  // guarded by progress_mutex

  auto& point_hist = obs::histogram("sweep/point_seconds");
  auto& points_counter = obs::counter("sweep/points");
  auto& progress_gauge = obs::gauge("sweep/progress");
  auto& jobs_gauge = obs::gauge("pool/open_jobs");
  auto& busy_gauge = obs::gauge("pool/busy_workers");
  const auto sweep_start = clock::now();
  const ThreadPool::Stats pool_before =
      pool != nullptr ? pool->stats() : ThreadPool::Stats{};

  auto evaluate_one = [&](std::size_t i) {
    EFFICSENSE_SPAN("sweep/point");
    const auto start = clock::now();
    SweepResult r;
    r.point = space.point(i);
    r.design = apply_point(base, r.point);
    r.metrics = evaluator_->evaluate(r.design);
    results[i] = std::move(r);
    point_hist.observe(
        std::chrono::duration<double>(clock::now() - start).count());
    points_counter.inc();
    if (pool != nullptr) {
      jobs_gauge.set(static_cast<double>(pool->open_jobs()));
      busy_gauge.set(static_cast<double>(pool->busy_workers()));
    }
    // Completion counting: done is bumped exactly once per point; callbacks
    // re-read it under the lock with a high-water guard, so observers see a
    // strictly increasing count even when workers race here.
    done.fetch_add(1, std::memory_order_acq_rel);
    if (progress) {
      const std::size_t snapshot = done.load(std::memory_order_acquire);
      std::lock_guard lock(progress_mutex);
      if (snapshot > last_reported) {
        last_reported = snapshot;
        progress_gauge.set_max(static_cast<double>(snapshot));
        progress(snapshot, total);
      }
    } else {
      progress_gauge.set_max(
          static_cast<double>(done.load(std::memory_order_acquire)));
    }
  };

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(total, evaluate_one);
  } else {
    for (std::size_t i = 0; i < total; ++i) evaluate_one(i);
  }

  if (pool != nullptr) {
    record_pool_gauges(
        *pool, pool_before,
        std::chrono::duration<double>(clock::now() - sweep_start).count());
  }
  return results;
}

void record_pool_gauges(const ThreadPool& pool, const ThreadPool::Stats& before,
                        double wall_s) {
  const ThreadPool::Stats window = pool.stats().minus(before);
  obs::gauge("pool/utilization").set(window.utilization(wall_s));
  for (std::size_t w = 0; w < window.worker_tasks.size(); ++w) {
    obs::gauge("pool/worker" + std::to_string(w) + "/tasks")
        .set(static_cast<double>(window.worker_tasks[w]));
  }
}

namespace {

std::string breakdown_to_string(
    const std::vector<std::pair<std::string, double>>& entries) {
  std::ostringstream os;
  os.precision(17);
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) os << "|";
    first = false;
    os << name << ":" << value;
  }
  return os.str();
}

std::vector<std::pair<std::string, double>> breakdown_from_string(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, '|')) {
    const auto colon = item.find(':');
    EFF_REQUIRE(colon != std::string::npos, "malformed breakdown cell");
    out.emplace_back(item.substr(0, colon),
                     std::stod(item.substr(colon + 1)));
  }
  return out;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  // The sweep CSV uses no quoted cells (points use ';', breakdowns '|').
  // Split manually so trailing empty cells survive (an empty breakdown in
  // the last column is a legal row; getline would silently drop it).
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (;;) {
    const auto comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

PointValues parse_point(const std::string& text) {
  PointValues out;
  if (text.empty()) return out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ';')) {
    const auto eq = item.find('=');
    EFF_REQUIRE(eq != std::string::npos, "malformed point item: " + item);
    out[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
  }
  return out;
}

std::string sweep_result_to_row(const SweepResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << point_to_string(r.point) << "," << r.metrics.snr_db << ","
     << r.metrics.accuracy << "," << r.metrics.power_w << ","
     << r.metrics.area_unit_caps << "," << r.metrics.segments_evaluated << ","
     << breakdown_to_string(r.metrics.power_breakdown.entries()) << ","
     << breakdown_to_string(r.metrics.area_breakdown.entries());
  return os.str();
}

SweepResult parse_sweep_row(const std::string& row,
                            const power::DesignParams& base) {
  const auto cells = split_csv_line(row);
  EFF_REQUIRE(cells.size() == 8, "malformed sweep CSV row");
  SweepResult r;
  r.point = parse_point(cells[0]);
  r.design = apply_point(base, r.point);
  r.metrics.snr_db = std::stod(cells[1]);
  r.metrics.accuracy = std::stod(cells[2]);
  r.metrics.power_w = std::stod(cells[3]);
  r.metrics.area_unit_caps = std::stod(cells[4]);
  r.metrics.segments_evaluated = static_cast<std::size_t>(std::stoul(cells[5]));
  for (const auto& [name, w] : breakdown_from_string(cells[6])) {
    r.metrics.power_breakdown.add(name, w);
  }
  for (const auto& [name, a] : breakdown_from_string(cells[7])) {
    r.metrics.area_breakdown.add(name, a);
  }
  return r;
}

std::string sweep_to_csv(const std::vector<SweepResult>& results) {
  std::ostringstream os;
  os << "point,snr_db,accuracy,power_w,area_unit_caps,segments,"
        "power_breakdown,area_breakdown\n";
  for (const auto& r : results) os << sweep_result_to_row(r) << "\n";
  return os.str();
}

std::vector<SweepResult> sweep_from_csv(const std::string& csv,
                                        const power::DesignParams& base) {
  std::istringstream is(csv);
  std::string line;
  EFF_REQUIRE(std::getline(is, line), "empty sweep CSV");
  EFF_REQUIRE(line.rfind("point,", 0) == 0, "unrecognized sweep CSV header");

  std::vector<SweepResult> out;
  std::size_t row = 0, skipped = 0;
  while (std::getline(is, line)) {
    ++row;
    if (line.empty()) continue;
    // A cache file can be truncated or corrupted (partial write, disk
    // trouble); one bad row should not discard the whole sweep. Skip it,
    // warn, and let the caller decide whether the row count is acceptable.
    try {
      out.push_back(parse_sweep_row(line, base));
    } catch (const std::exception& e) {
      ++skipped;
      EFFICSENSE_LOG_WARN("skipping malformed sweep CSV row",
                          {{"row", obs::logv(row)}, {"error", e.what()}});
    }
  }
  if (skipped > 0) {
    obs::counter("sweep_csv/rows_skipped").inc(skipped);
    EFFICSENSE_LOG_WARN(
        "sweep CSV had malformed rows",
        {{"skipped", obs::logv(skipped)}, {"loaded", obs::logv(out.size())}});
  }
  return out;
}

}  // namespace efficsense::core
