#include "classify/detector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "cs/effective.hpp"
#include "obs/metrics.hpp"
#include "cs/reconstructor.hpp"
#include "cs/srbm.hpp"
#include "dsp/resample.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::classify {

std::vector<double> ideal_resample(const sim::Waveform& w, double fs) {
  EFF_REQUIRE(!w.empty(), "cannot resample an empty waveform");
  const auto n = static_cast<std::size_t>(std::floor(w.duration_s() * fs));
  const auto times = dsp::uniform_times(n, fs);
  return dsp::sample_at_times(w.samples, w.fs, times);
}

std::vector<std::optional<double>> epoch_labels(
    const std::optional<eeg::IctalAnnotation>& ictal, std::size_t n_epochs,
    double epoch_s, double lo_overlap, double hi_overlap) {
  EFF_REQUIRE(epoch_s > 0.0, "epoch length must be positive");
  EFF_REQUIRE(lo_overlap <= hi_overlap, "overlap thresholds out of order");
  std::vector<std::optional<double>> labels(n_epochs);
  for (std::size_t e = 0; e < n_epochs; ++e) {
    if (!ictal.has_value()) {
      labels[e] = 0.0;
      continue;
    }
    const double start = static_cast<double>(e) * epoch_s;
    const double end = start + epoch_s;
    const double overlap_s =
        std::max(0.0, std::min(end, ictal->end_s()) - std::max(start, ictal->onset_s));
    const double overlap = overlap_s / epoch_s;
    if (overlap >= hi_overlap) {
      labels[e] = 1.0;
    } else if (overlap <= lo_overlap) {
      labels[e] = 0.0;
    }  // else: ambiguous boundary epoch, stays nullopt
  }
  return labels;
}

namespace {

/// Additive white noise plus uniform mid-tread quantization, the cheap
/// surrogate of the classical chain for training augmentation.
std::vector<double> noisy_quantized_view(const std::vector<double>& x,
                                         const AugmentationConfig& aug,
                                         Rng& rng) {
  const double sigma = 1e-6 * rng.uniform(aug.noise_uv_min, aug.noise_uv_max);
  const int bits = aug.quant_bits[static_cast<std::size_t>(
      rng.below(aug.quant_bits.size()))];
  const double lsb = aug.input_full_scale_v / std::pow(2.0, bits);
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i] + rng.gaussian(0.0, sigma);
    out[i] = std::round(v / lsb) * lsb;
  }
  return out;
}

/// Charge-sharing encode + OMP decode of the clean record (pure math, no
/// analog non-idealities beyond the nominal decay), the surrogate of the
/// CS chain for training augmentation. The output is truncated/padded to
/// the input length so epoch labels stay aligned.
std::vector<double> cs_view(const std::vector<double>& x,
                            const AugmentationConfig& aug, Rng& rng) {
  const auto m = static_cast<std::size_t>(
      aug.cs_m[static_cast<std::size_t>(rng.below(aug.cs_m.size()))]);
  const auto n_phi = static_cast<std::size_t>(aug.cs_n_phi);
  const auto phi = cs::SparseBinaryMatrix::generate(
      m, n_phi, static_cast<std::size_t>(aug.cs_sparsity), rng());
  const auto gains =
      cs::charge_sharing_gains(aug.cs_c_sample_f, aug.cs_c_hold_f);
  // Encode through the CSR operator with the charge-sharing weights —
  // O(s * N) per frame instead of the dense O(M * N), same values.
  const auto weights = cs::effective_entry_weights(phi, gains.a, gains.b);

  // Input noise (the LNA floor the CS chain tolerates) before encoding.
  const double sigma = 1e-6 * rng.uniform(aug.noise_uv_min, aug.noise_uv_max);

  cs::ReconstructorConfig rc;
  rc.residual_tol = aug.recon_tol;
  const cs::Reconstructor recon(phi, gains, rc);

  const std::size_t frames = x.size() / n_phi;
  std::vector<double> out;
  out.reserve(x.size());
  linalg::Vector frame(n_phi);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t j = 0; j < n_phi; ++j) {
      frame[j] = x[f * n_phi + j] + rng.gaussian(0.0, sigma);
    }
    const auto y = phi.csr().apply(frame, weights);
    const auto xr = recon.reconstruct_frame(y);
    out.insert(out.end(), xr.begin(), xr.end());
  }
  out.resize(x.size(), 0.0);  // pad the dropped partial frame
  return out;
}

}  // namespace

EpilepsyDetector EpilepsyDetector::train(const eeg::Dataset& clean_dataset,
                                         const DetectorConfig& config) {
  EFF_REQUIRE(clean_dataset.size() >= 4, "training dataset too small");
  EFF_REQUIRE(clean_dataset.count(eeg::SegmentClass::Seizure) > 0 &&
                  clean_dataset.count(eeg::SegmentClass::Normal) > 0,
              "training dataset must contain both classes");

  EpilepsyDetector det;
  det.config_ = config;
  det.extractor_ = FeatureExtractor(config.features);

  std::vector<linalg::Vector> rows;
  std::vector<double> labels;
  Rng aug_rng(config.augment.seed);

  auto add_record = [&](const std::vector<double>& record,
                        const std::optional<eeg::IctalAnnotation>& ictal,
                        double fs) {
    const auto epochs = det.extractor_.epoch_matrix(record, fs);
    const auto truth = epoch_labels(ictal, epochs.rows(),
                                    config.features.epoch_s);
    for (std::size_t e = 0; e < epochs.rows(); ++e) {
      if (!truth[e].has_value()) continue;  // ambiguous boundary epoch
      linalg::Vector row(epochs.cols());
      for (std::size_t c = 0; c < epochs.cols(); ++c) row[c] = epochs(e, c);
      rows.push_back(std::move(row));
      labels.push_back(*truth[e]);
    }
  };

  for (const auto& seg : clean_dataset.segments) {
    EFF_REQUIRE(seg.label == eeg::SegmentClass::Normal || seg.ictal.has_value(),
                "seizure training segment lacks its annotation");
    const auto sampled = ideal_resample(seg.waveform, config.fs_hz);
    add_record(sampled, seg.ictal, config.fs_hz);
    if (config.augment.enabled) {
      add_record(noisy_quantized_view(sampled, config.augment, aug_rng),
                 seg.ictal, config.fs_hz);
      add_record(cs_view(sampled, config.augment, aug_rng), seg.ictal,
                 config.fs_hz);
    }
  }

  // Measurement-domain pass: compressed-domain scenarios score the detector
  // directly on y, so it must also have seen y-space epochs — the deployed
  // phi draw applied to each clean segment, plus one noisy pre-encode view.
  // A separate pass with a separately derived Rng keeps the aug_rng stream
  // above bit-identical whether or not this view is enabled.
  if (config.augment.enabled && config.augment.y_view.enabled) {
    const auto& yv = config.augment.y_view;
    EFF_REQUIRE(yv.m > 0 && yv.m <= yv.n_phi,
                "y-domain view needs 0 < m <= n_phi");
    const double fs_y =
        config.fs_hz * static_cast<double>(yv.m) / static_cast<double>(yv.n_phi);
    const auto phi = cs::SparseBinaryMatrix::generate(
        static_cast<std::size_t>(yv.m), static_cast<std::size_t>(yv.n_phi),
        static_cast<std::size_t>(yv.sparsity), yv.phi_seed);
    const auto gains = cs::charge_sharing_gains(yv.c_sample_f, yv.c_hold_f);
    const auto weights = cs::effective_entry_weights(phi, gains.a, gains.b);
    Rng y_rng(derive_seed(config.augment.seed, 0x79646f6d));  // "ydom"
    const auto n_phi = static_cast<std::size_t>(yv.n_phi);
    for (const auto& seg : clean_dataset.segments) {
      const auto sampled = ideal_resample(seg.waveform, config.fs_hz);
      const std::size_t frames = sampled.size() / n_phi;
      if (frames == 0) continue;
      const double sigma =
          1e-6 * y_rng.uniform(config.augment.noise_uv_min,
                               config.augment.noise_uv_max);
      std::vector<double> clean_y, noisy_y;
      clean_y.reserve(frames * phi.rows());
      noisy_y.reserve(frames * phi.rows());
      linalg::Vector frame(n_phi), noisy_frame(n_phi);
      for (std::size_t f = 0; f < frames; ++f) {
        for (std::size_t j = 0; j < n_phi; ++j) {
          frame[j] = sampled[f * n_phi + j];
          noisy_frame[j] = frame[j] + y_rng.gaussian(0.0, sigma);
        }
        const auto y = phi.csr().apply(frame, weights);
        clean_y.insert(clean_y.end(), y.begin(), y.end());
        const auto yn = phi.csr().apply(noisy_frame, weights);
        noisy_y.insert(noisy_y.end(), yn.begin(), yn.end());
      }
      add_record(clean_y, seg.ictal, fs_y);
      add_record(noisy_y, seg.ictal, fs_y);
    }
  }
  EFF_REQUIRE(rows.size() >= 16, "too few labelled epochs to train on");

  linalg::Matrix x(rows.size(), FeatureExtractor::kEpochFeatures);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rows[r][c];
  }

  det.standardizer_.fit(x);
  const auto xs = det.standardizer_.transform(x);

  det.net_ = nn::Mlp(
      {FeatureExtractor::kEpochFeatures, config.hidden_units, 1},
      config.train.seed);
  const auto result = nn::train_binary(det.net_, xs, labels, config.train);
  det.training_accuracy_ = result.final_accuracy;
  return det;
}

std::vector<double> EpilepsyDetector::epoch_probabilities(
    const std::vector<double>& x, double fs) const {
  return std::move(epoch_probabilities_lanes({&x}, fs).front());
}

std::vector<std::vector<double>> EpilepsyDetector::epoch_probabilities_lanes(
    const std::vector<const std::vector<double>*>& xs, double fs) const {
  const std::size_t lanes = xs.size();
  EFF_REQUIRE(lanes >= 1, "epoch_probabilities_lanes needs at least one lane");
  const std::size_t n = xs.front()->size();
  for (const auto* x : xs) {
    EFF_REQUIRE(x != nullptr && x->size() == n,
                "lane records must exist and have equal length");
  }
  const auto epoch_len =
      static_cast<std::size_t>(config_.features.epoch_s * fs);
  EFF_REQUIRE(epoch_len >= 64, "epoch too short at this sample rate");
  const std::size_t epochs = n / epoch_len;
  EFF_REQUIRE(epochs >= 1, "record shorter than one epoch");

  std::vector<std::vector<double>> probs(lanes, std::vector<double>(epochs));
  std::vector<const double*> ptrs(lanes);
  linalg::Vector row(FeatureExtractor::kEpochFeatures);
  double feature_s = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t l = 0; l < lanes; ++l) {
      ptrs[l] = xs[l]->data() + e * epoch_len;
    }
    const auto f_start = std::chrono::steady_clock::now();
    const auto f =
        extractor_.epoch_features_lanes(ptrs.data(), lanes, epoch_len, fs);
    feature_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - f_start)
                     .count();
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t c = 0; c < FeatureExtractor::kEpochFeatures; ++c) {
        row[c] = f(l, c);
      }
      probs[l][e] = net_.predict_proba(standardizer_.transform(row));
    }
  }
  obs::histogram("time/detect_features").observe(feature_s);
  return probs;
}

std::vector<EpilepsyDetector::EpochScore> EpilepsyDetector::score_epochs_lanes(
    const std::vector<const std::vector<double>*>& xs, double fs,
    const std::optional<eeg::IctalAnnotation>& ictal) const {
  const auto start = std::chrono::steady_clock::now();
  const auto probs = epoch_probabilities_lanes(xs, fs);
  const auto truth =
      epoch_labels(ictal, probs.front().size(), config_.features.epoch_s);
  std::vector<EpochScore> scores(xs.size());
  for (std::size_t l = 0; l < xs.size(); ++l) {
    for (std::size_t e = 0; e < probs[l].size(); ++e) {
      if (!truth[e].has_value()) continue;
      ++scores[l].scored;
      if ((probs[l][e] >= 0.5) == (*truth[e] >= 0.5)) ++scores[l].correct;
    }
  }
  obs::histogram("time/detect_score")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count());
  return scores;
}

double EpilepsyDetector::seizure_probability(const std::vector<double>& x,
                                             double fs) const {
  auto probs = epoch_probabilities(x, fs);
  std::sort(probs.begin(), probs.end(), std::greater<double>());
  const std::size_t top = std::max<std::size_t>(1, probs.size() / 4);
  double sum = 0.0;
  for (std::size_t i = 0; i < top; ++i) sum += probs[i];
  return sum / static_cast<double>(top);
}

EpilepsyDetector::EpochScore EpilepsyDetector::score_epochs(
    const std::vector<double>& x, double fs,
    const std::optional<eeg::IctalAnnotation>& ictal) const {
  return score_epochs_lanes({&x}, fs, ictal).front();
}

std::string EpilepsyDetector::to_blob() const {
  std::ostringstream os;
  os.precision(17);
  os << "detector v2\n"
     << config_.fs_hz << " " << config_.features.epoch_s << " "
     << config_.hidden_units << " " << training_accuracy_ << "\n"
     << "<std>\n"
     << standardizer_.to_blob() << "</std>\n<net>\n"
     << net_.to_blob() << "</net>\n";
  return os.str();
}

EpilepsyDetector EpilepsyDetector::from_blob(const std::string& blob) {
  std::istringstream is(blob);
  std::string tag, version;
  is >> tag >> version;
  EFF_REQUIRE(tag == "detector" && version == "v2",
              "unrecognized detector blob");
  EpilepsyDetector det;
  is >> det.config_.fs_hz >> det.config_.features.epoch_s >>
      det.config_.hidden_units >> det.training_accuracy_;

  auto read_section = [&](const std::string& open, const std::string& close) {
    std::string line;
    // Skip anything (trailing numbers, blank lines) until the opening tag.
    while (std::getline(is, line) && line != open) {
      EFF_REQUIRE(line.empty() || line.find('<') == std::string::npos,
                  "malformed detector blob (expected " + open + ")");
    }
    EFF_REQUIRE(line == open, "malformed detector blob (" + open + ")");
    std::ostringstream body;
    while (std::getline(is, line) && line != close) body << line << "\n";
    EFF_REQUIRE(line == close, "malformed detector blob (" + close + ")");
    return body.str();
  };

  det.standardizer_ = nn::Standardizer::from_blob(read_section("<std>", "</std>"));
  det.net_ = nn::Mlp::from_blob(read_section("<net>", "</net>"));
  det.extractor_ = FeatureExtractor(det.config_.features);
  return det;
}

}  // namespace efficsense::classify
