#pragma once
// The sweep engine of Step 5: evaluate every point of a DesignSpace with an
// Evaluator, optionally across a thread pool (each point is independent and
// deterministically seeded). Results serialize to CSV so the figure benches
// can share one sweep through the file cache.

#include <functional>
#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluator.hpp"
#include "util/thread_pool.hpp"

namespace efficsense::core {

struct SweepResult {
  PointValues point;
  power::DesignParams design;
  EvalMetrics metrics;
};

class Sweeper {
 public:
  explicit Sweeper(const Evaluator* evaluator);

  /// Evaluate the full grid (base design + each point's overrides).
  /// `progress` (optional) is invoked after each finished point with
  /// (done, total) — from worker threads when a pool is used, serialized
  /// and with strictly increasing `done` (the same count feeds the
  /// "sweep/progress" obs gauge).
  std::vector<SweepResult> run(
      const power::DesignParams& base, const DesignSpace& space,
      ThreadPool* pool = nullptr,
      const std::function<void(std::size_t, std::size_t)>& progress = {}) const;

 private:
  const Evaluator* evaluator_;
};

/// Mirror a pool's activity over one window (a sweep) into obs gauges:
/// pool/utilization is the workers' busy time since the `before` snapshot
/// over size() x `wall_s`, and pool/worker<i>/tasks the indices worker i
/// ran since then. A window's delta, not the pool's lifetime totals, so
/// sweeps sharing a pool each read at most 1.
void record_pool_gauges(const ThreadPool& pool, const ThreadPool::Stats& before,
                        double wall_s);

/// One result as a single CSV row (no header, no newline), 17-digit
/// precision so doubles round-trip bit-exactly. This row is also the unit
/// the run journal checkpoints: parse_sweep_row(sweep_result_to_row(r))
/// re-serializes to the identical bytes.
std::string sweep_result_to_row(const SweepResult& r);

/// Inverse of sweep_result_to_row; throws on a malformed row. `base`
/// reconstructs the full DesignParams from the row's point overrides.
SweepResult parse_sweep_row(const std::string& row,
                            const power::DesignParams& base);

/// CSV round-trip for caching. The CSV stores the point overrides and all
/// metrics (including the power/area breakdowns); `base` reconstructs the
/// full DesignParams on load.
std::string sweep_to_csv(const std::vector<SweepResult>& results);
/// Malformed or truncated rows are skipped with an obs::log warning (and
/// counted in the "sweep_csv/rows_skipped" counter) rather than discarding
/// the whole sweep; an unrecognized header still throws.
std::vector<SweepResult> sweep_from_csv(const std::string& csv,
                                        const power::DesignParams& base);

/// Parse "a=1;b=2" back into PointValues (inverse of point_to_string).
PointValues parse_point(const std::string& text);

}  // namespace efficsense::core
