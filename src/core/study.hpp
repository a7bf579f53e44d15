#pragma once
// The epilepsy-detection case study of Sec. IV, packaged so that every
// figure bench (7a, 7b, 8, 9, 10) consumes the *same* search-space
// evaluation, exactly as in the paper. The study synthesizes the dataset,
// trains the detector on clean signals, sweeps the baseline and CS search
// spaces, and caches everything in the repo-local file cache keyed by its
// configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "classify/detector.hpp"
#include "core/pareto.hpp"
#include "core/sweep.hpp"
#include "util/cache.hpp"

namespace efficsense::core {

struct StudyConfig {
  // Dataset
  std::size_t eval_segments = 32;    ///< total (balanced normal/seizure)
  std::size_t train_segments = 80;   ///< detector training set
  double synth_fs_hz = 2048.0;
  double segment_duration_s = 23.6;
  std::uint64_t seed = 2022;

  // Search space (paper Table III ranges)
  std::vector<double> noise_grid_uv = {1.0, 2.0, 3.5, 6.0, 10.0, 15.0, 20.0};
  std::vector<double> bits_grid = {6, 7, 8};
  std::vector<double> dac_cu_grid_f = {1e-15, 4e-15};
  std::vector<double> cs_m_grid = {75, 150, 192};
  std::vector<double> cs_c_hold_grid_f = {0.2e-12, 1e-12};

  // Reconstruction
  double recon_tol = 0.02;

  /// Accuracy constraint for "the optimal design" (paper: 98 %).
  double min_accuracy = 0.98;

  /// Apply EFFICSENSE_SEGMENTS / EFFICSENSE_FULL env knobs.
  static StudyConfig from_env();

  std::string cache_key(const std::string& what) const;
};

struct StudyResult {
  StudyConfig config;
  power::DesignParams base_baseline;  ///< base design, CS off
  power::DesignParams base_cs;        ///< base design, CS on
  std::vector<SweepResult> baseline;
  std::vector<SweepResult> cs;
};

enum class Merit { Snr, Accuracy };

/// Convert sweep results into Pareto candidates (cost = power, merit as
/// selected; tag = index into `results`).
std::vector<Candidate> make_candidates(const std::vector<SweepResult>& results,
                                       Merit merit);

class Study {
 public:
  explicit Study(StudyConfig config = StudyConfig::from_env());

  /// Run (or load from cache) the full study. `log` receives progress
  /// lines.
  StudyResult run(const std::function<void(const std::string&)>& log = {});

  /// The trained detector (available after run()).
  const classify::EpilepsyDetector& detector() const;

  const StudyConfig& config() const { return config_; }

 private:
  classify::EpilepsyDetector train_or_load_detector(
      const std::function<void(const std::string&)>& log);

  StudyConfig config_;
  FileCache cache_;
  std::optional<classify::EpilepsyDetector> detector_;
};

/// Human-readable summary of a sweep result (for bench output).
std::string describe_result(const SweepResult& r);

}  // namespace efficsense::core
