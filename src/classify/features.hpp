#pragma once
// EEG feature extraction for seizure detection. Classic ictal markers are
// computed per epoch: amplitude (log-rms), line length, Hjorth mobility and
// complexity, relative band powers (delta/theta/alpha/beta/gamma), spectral
// entropy, dominant frequency, crest factor and zero-crossing rate. A
// segment-level vector aggregates (mean, max) of each epoch feature, which
// captures seizures that occupy only part of a segment.

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace efficsense::classify {

struct FeatureConfig {
  double epoch_s = 2.0;  ///< epoch length for feature computation
};

class FeatureExtractor {
 public:
  static constexpr std::size_t kEpochFeatures = 13;
  /// Segment vector = [mean, max] of each epoch feature.
  static constexpr std::size_t kSegmentFeatures = 2 * kEpochFeatures;

  explicit FeatureExtractor(FeatureConfig config = {});

  static std::vector<std::string> epoch_feature_names();

  /// Features of a single epoch (any length >= 64 samples).
  linalg::Vector epoch_features(const std::vector<double>& x, double fs) const;

  /// Features of one epoch across `lanes` signals in lockstep: xs[l] points
  /// at lane l's epoch (n samples each). Returns a lanes x kEpochFeatures
  /// matrix whose row l matches epoch_features of lane l bit for bit — the
  /// Welch/FFT schedule is lane-invariant and every per-lane reduction
  /// keeps the scalar accumulation order, with SIMD across lanes only.
  /// One lane runs epoch_features itself (the scalar FFT is faster there).
  linalg::Matrix epoch_features_lanes(const double* const* xs,
                                      std::size_t lanes, std::size_t n,
                                      double fs) const;

  /// One row per complete epoch of the record.
  linalg::Matrix epoch_matrix(const std::vector<double>& x, double fs) const;

  /// The segment-level aggregate vector (size kSegmentFeatures).
  linalg::Vector segment_features(const std::vector<double>& x, double fs) const;

  const FeatureConfig& config() const { return config_; }

 private:
  FeatureConfig config_;
};

}  // namespace efficsense::classify
