#pragma once
// The epilepsy detector: per-epoch features -> standardizer -> MLP.
// Substitutes the window-based deep CNN of Ullah et al. [20] used by the
// paper to score detection accuracy (DESIGN.md §2). The detector classifies
// 2-second epochs; evaluation is epoch-level against the generator's
// ground-truth discharge annotations, with ambiguous onset/offset boundary
// epochs excluded from both training and scoring (standard practice in the
// seizure-detection literature). Trained once on clean EEG with front-end
// domain augmentation; evaluated on whatever the simulated front-end
// delivers.

#include <cstdint>
#include <optional>
#include <string>

#include "classify/features.hpp"
#include "eeg/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/standardizer.hpp"
#include "nn/train.hpp"

namespace efficsense::classify {

/// Ground-truth label per epoch derived from the discharge annotation:
/// 1 = seizure (overlap >= hi), 0 = normal (overlap <= lo), nullopt =
/// ambiguous boundary epoch, excluded from training and scoring.
std::vector<std::optional<double>> epoch_labels(
    const std::optional<eeg::IctalAnnotation>& ictal, std::size_t n_epochs,
    double epoch_s, double lo_overlap = 0.2, double hi_overlap = 0.8);

/// Domain augmentation for training. The deployed detector scores signals
/// delivered by imperfect front-ends (noisy, coarsely quantized, or
/// CS-reconstructed), so the training set includes such views of each clean
/// segment — the counterpart of the paper's CNN having been trained on the
/// raw corpus the front-ends digitize.
struct AugmentationConfig {
  bool enabled = true;
  std::uint64_t seed = 4242;
  // Noisy + quantized view (approximates the classical chain). The noise
  // range is the *nominal* front-end quality a designer would calibrate the
  // deployed classifier on — not the worst corner of the search space, so
  // poor design points genuinely score worse (the dose-response Fig. 7b
  // rests on).
  double noise_uv_min = 2.0;
  double noise_uv_max = 6.0;
  std::vector<int> quant_bits = {6, 7, 8};
  double input_full_scale_v = 2e-3;  ///< V_FS referred to the sensor input
  // CS-reconstructed view (approximates the charge-sharing chain).
  std::vector<int> cs_m = {75, 150, 192};
  int cs_n_phi = 384;
  int cs_sparsity = 2;
  double cs_c_sample_f = 0.125e-12;
  double cs_c_hold_f = 0.5e-12;
  double recon_tol = 0.02;
  /// Measurement-domain view: compressed-domain scenarios skip the gateway
  /// reconstruction and score the detector directly on y, so the training
  /// set must contain y-space views of each clean segment — encoded with
  /// the *deployed* phi draw (phi_seed) so train and serve see the same
  /// measurement operator. Off by default: the main augmentation streams
  /// stay bit-identical whether or not this view exists.
  struct YDomainView {
    bool enabled = false;
    std::uint64_t phi_seed = 0;
    int m = 75;
    int n_phi = 384;
    int sparsity = 2;
    double c_sample_f = 0.125e-12;
    double c_hold_f = 0.5e-12;
  };
  YDomainView y_view;
};

struct DetectorConfig {
  FeatureConfig features;
  std::size_t hidden_units = 16;
  nn::TrainConfig train;
  AugmentationConfig augment;
  /// The detector is trained on clean segments sampled at this rate — the
  /// rate at which deployed front-ends deliver data (f_sample).
  double fs_hz = 537.6;
};

class EpilepsyDetector {
 public:
  /// Train on a clean dataset (segments must carry ictal annotations for
  /// the seizure class). Segments are ideally resampled to config.fs_hz.
  static EpilepsyDetector train(const eeg::Dataset& clean_dataset,
                                const DetectorConfig& config = {});

  /// P(seizure) of every complete epoch of a record at rate `fs`: lane 0
  /// of a one-lane epoch_probabilities_lanes.
  std::vector<double> epoch_probabilities(const std::vector<double>& x,
                                          double fs) const;

  /// Segment-level P(seizure): mean of the top quartile of epoch scores
  /// (a discharge occupies a contiguous part of the segment).
  double seizure_probability(const std::vector<double>& x, double fs) const;
  bool detect(const std::vector<double>& x, double fs) const {
    return seizure_probability(x, fs) >= 0.5;
  }

  /// Epoch-level scoring against ground truth (boundary epochs skipped).
  struct EpochScore {
    std::size_t correct = 0;
    std::size_t scored = 0;
  };
  /// Lane 0 of a one-lane score_epochs_lanes.
  EpochScore score_epochs(const std::vector<double>& x, double fs,
                          const std::optional<eeg::IctalAnnotation>& ictal) const;

  /// Epoch probabilities of `lanes` equal-length records in lockstep;
  /// element [l][e] is bit-identical to scoring record l alone. Feature
  /// extraction runs across lanes (the dominant cost — the shared
  /// Welch/FFT schedule amortizes over the lane group); the tiny MLP head
  /// stays per lane.
  std::vector<std::vector<double>> epoch_probabilities_lanes(
      const std::vector<const std::vector<double>*>& xs, double fs) const;

  /// Epoch-level scoring of a lane group: scores[l] is exactly the score
  /// of record l alone.
  std::vector<EpochScore> score_epochs_lanes(
      const std::vector<const std::vector<double>*>& xs, double fs,
      const std::optional<eeg::IctalAnnotation>& ictal) const;

  const DetectorConfig& config() const { return config_; }
  double training_accuracy() const { return training_accuracy_; }

  std::string to_blob() const;
  static EpilepsyDetector from_blob(const std::string& blob);

 private:
  EpilepsyDetector() = default;
  DetectorConfig config_;
  FeatureExtractor extractor_;
  nn::Standardizer standardizer_;
  nn::Mlp net_;
  double training_accuracy_ = 0.0;
};

/// Ideal resampling of a waveform to `fs` (linear interpolation) — the
/// "perfect front-end" reference path used for training and for SNR ground
/// truth.
std::vector<double> ideal_resample(const sim::Waveform& w, double fs);

}  // namespace efficsense::classify
