#pragma once
// Shared pieces of the benchmark: the per-run report, order statistics,
// obs-registry deltas, the host fingerprint and the "test bed" (dataset +
// trained detector + evaluator) every workload sets up from scratch.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "classify/detector.hpp"
#include "core/evaluator.hpp"
#include "core/sweep.hpp"
#include "eeg/dataset.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace es = efficsense;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           ///< tiny inputs, for the benchmark's tests
  bool tamper = false;          ///< corrupt one output (tests the gate)
  std::string trace_out;        ///< span dump path ("" = none)
};

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

/// The seed every pinned result digest was taken at.
inline constexpr std::uint64_t kDefaultSeed = 2022;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< e.g. which percentile a tail is
};

/// Everything one run reports.
class Report {
 public:
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;    ///< untraced run: BENCHMARK.json end_to_end
  std::vector<Metric> layer;  ///< traced run: BENCHMARK.json per_layer
  std::vector<Metric> info;   ///< printed in the table only
  std::vector<std::pair<std::string, std::string>> facts;  ///< digests, host
  std::vector<std::string> failures;

  /// A correctness check; a failed one makes the run report no numbers.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures.empty(); }

  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::size_t samples = 1, std::string note = {});
  void fact(std::string key, std::string value);
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
/// beyond it (the max when fewer than 20 samples); `label` names it.
double tail(std::vector<double> v, std::string* label);

// --- obs registry deltas ----------------------------------------------------

struct ObsSnap {
  es::obs::Registry::Snapshot snap;
  std::uint64_t rng_bulk_fills = 0;  ///< Rng::bulk_fill_count()
  static ObsSnap take();
  std::uint64_t counter(const std::string& name) const;
  const es::obs::Histogram::Snapshot* histogram(const std::string& name) const;
};
std::uint64_t counter_delta(const ObsSnap& a, const ObsSnap& b,
                            const std::string& name);
double hist_sum_delta(const ObsSnap& a, const ObsSnap& b,
                      const std::string& name);
std::uint64_t hist_count_delta(const ObsSnap& a, const ObsSnap& b,
                               const std::string& name);
/// Bucketed q-quantile of the observations made between a and b.
double hist_quantile_delta(const ObsSnap& a, const ObsSnap& b,
                           const std::string& name, double q);

// --- host -------------------------------------------------------------------

/// Worker threads (executors) a workload may use: min(nproc, 4).
std::size_t executors();
double peak_rss_mb();
std::string hex16(std::uint64_t v);
std::uint64_t fnv_bits(std::uint64_t h, double v);
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnv = 0xCBF29CE484222325ULL;
/// Stamp the host fingerprint into the report facts.
void fingerprint(Report& r, std::size_t pool_threads, std::size_t lanes);

/// Bitwise identity of a metrics record (every double's raw bits).
std::uint64_t metrics_digest(std::uint64_t h, const es::core::EvalMetrics& m);
bool same_bits(const es::core::EvalMetrics& a, const es::core::EvalMetrics& b);
/// Digest of a sweep result set, exactly as tools/run_sweep prints it.
std::uint64_t results_digest(const std::vector<es::core::SweepResult>& r);

// --- the test bed -----------------------------------------------------------

struct BedConfig {
  std::size_t eval_segments = 32;
  std::size_t train_segments = 80;
  std::uint64_t seed = kDefaultSeed;
  es::classify::DetectorConfig detector;
  es::core::EvalOptions eval;
};

/// Dataset, detector and evaluator of one workload, built from scratch
/// (no file cache is read or written).
struct Bed {
  es::eeg::Dataset dataset;
  std::optional<es::classify::EpilepsyDetector> detector;
  std::unique_ptr<es::core::Evaluator> evaluator;
  double synth_s = 0.0;  ///< dataset synthesis (eval + training sets)
  double train_s = 0.0;  ///< detector training
};

/// Build a bed. Dataset synthesis fans out over `threads` executors; the
/// datasets are identical to the serial synthesis.
std::unique_ptr<Bed> make_bed(const BedConfig& config, std::size_t threads);

/// Run `setup` kSetupReps times (each from scratch) and keep the last
/// result; returns the median set-up time in seconds.
template <typename T>
double timed_setup(std::function<std::unique_ptr<T>()> setup,
                   std::unique_ptr<T>* out, std::vector<double>* times) {
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    out->reset();
    const auto t0 = Clock::now();
    *out = setup();
    times->push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(*times);
}

}  // namespace perfbench
