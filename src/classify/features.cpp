#include "classify/features.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "dsp/metrics.hpp"
#include "util/error.hpp"

namespace efficsense::classify {

FeatureExtractor::FeatureExtractor(FeatureConfig config) : config_(config) {
  EFF_REQUIRE(config_.epoch_s > 0.1, "epoch length too short");
}

std::vector<std::string> FeatureExtractor::epoch_feature_names() {
  return {"log_rms",       "line_length",  "hjorth_mobility",
          "hjorth_complexity", "rel_delta", "rel_theta",
          "rel_alpha",     "rel_beta",     "rel_gamma",
          "spectral_entropy",  "dominant_hz", "crest_factor",
          "zero_cross_rate"};
}

namespace {

double safe_log(double v) { return std::log10(std::max(v, 1e-30)); }

}  // namespace

linalg::Vector FeatureExtractor::epoch_features(const std::vector<double>& x,
                                                double fs) const {
  EFF_REQUIRE(x.size() >= 64, "epoch must have at least 64 samples");
  EFF_REQUIRE(fs > 0.0, "sample rate must be positive");
  const auto n = x.size();

  // Centered copy; amplitude features use the AC component.
  const double m = dsp::mean(x);
  std::vector<double> xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = x[i] - m;

  const double rms = dsp::rms(xc);
  const double var_x = rms * rms;

  // First and second differences (Hjorth parameters).
  double var_d1 = 0.0, var_d2 = 0.0;
  double line_length = 0.0;
  std::size_t zero_crossings = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const double d = xc[i] - xc[i - 1];
    var_d1 += d * d;
    line_length += std::fabs(d);
    if ((xc[i] >= 0.0) != (xc[i - 1] >= 0.0)) ++zero_crossings;
    if (i >= 2) {
      const double d2 = xc[i] - 2.0 * xc[i - 1] + xc[i - 2];
      var_d2 += d2 * d2;
    }
  }
  var_d1 /= static_cast<double>(n - 1);
  var_d2 /= static_cast<double>(n - 2);
  line_length /= static_cast<double>(n - 1);

  const double mobility = (var_x > 0.0) ? std::sqrt(var_d1 / var_x) : 0.0;
  const double mobility_d =
      (var_d1 > 0.0) ? std::sqrt(var_d2 / var_d1) : 0.0;
  const double complexity = (mobility > 0.0) ? mobility_d / mobility : 0.0;

  // Spectral features from a Welch PSD. The window must be ~1 s long so the
  // delta band (0.5-4 Hz) spans several bins regardless of sample rate.
  std::size_t nperseg = 1;
  while (nperseg * 2 <= n && static_cast<double>(nperseg) < fs) nperseg *= 2;
  nperseg = std::max<std::size_t>(nperseg, 64);
  nperseg = std::min(nperseg, n);
  const auto psd = dsp::welch_psd(xc, fs, nperseg);
  const double nyq = fs / 2.0;
  auto rel_band = [&](double lo, double hi) {
    const double total = dsp::band_power(psd, 0.5, std::min(100.0, nyq * 0.98));
    if (total <= 0.0) return 0.0;
    return dsp::band_power(psd, lo, std::min(hi, nyq * 0.98)) / total;
  };
  const double rel_delta = rel_band(0.5, 4.0);
  const double rel_theta = rel_band(4.0, 8.0);
  const double rel_alpha = rel_band(8.0, 13.0);
  const double rel_beta = rel_band(13.0, 30.0);
  const double rel_gamma = rel_band(30.0, 80.0);

  // Normalized spectral entropy over the informative band.
  double entropy = 0.0;
  {
    double total = 0.0;
    std::size_t bins = 0;
    for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
      if (psd.freq_hz[k] >= 0.5 && psd.freq_hz[k] <= std::min(100.0, nyq)) {
        total += psd.density[k];
        ++bins;
      }
    }
    if (total > 0.0 && bins > 1) {
      for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
        if (psd.freq_hz[k] >= 0.5 && psd.freq_hz[k] <= std::min(100.0, nyq)) {
          const double p = psd.density[k] / total;
          if (p > 0.0) entropy -= p * std::log(p);
        }
      }
      entropy /= std::log(static_cast<double>(bins));
    }
  }

  // Dominant frequency (largest PSD bin above 0.5 Hz).
  double dominant_hz = 0.0, peak = -1.0;
  for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
    if (psd.freq_hz[k] >= 0.5 && psd.density[k] > peak) {
      peak = psd.density[k];
      dominant_hz = psd.freq_hz[k];
    }
  }

  double peak_to_peak = 0.0;
  const auto [mn, mx] = std::minmax_element(xc.begin(), xc.end());
  peak_to_peak = *mx - *mn;
  const double crest = (rms > 0.0) ? peak_to_peak / (2.0 * rms) : 0.0;

  return linalg::Vector{
      safe_log(rms),
      safe_log(line_length),
      mobility,
      complexity,
      rel_delta,
      rel_theta,
      rel_alpha,
      rel_beta,
      rel_gamma,
      entropy,
      dominant_hz,
      crest,
      static_cast<double>(zero_crossings) / static_cast<double>(n),
  };
}

linalg::Matrix FeatureExtractor::epoch_features_lanes(const double* const* xs,
                                                      std::size_t lanes,
                                                      std::size_t n,
                                                      double fs) const {
  EFF_REQUIRE(lanes >= 1, "epoch_features_lanes needs at least one lane");
  EFF_REQUIRE(n >= 64, "epoch must have at least 64 samples");
  EFF_REQUIRE(fs > 0.0, "sample rate must be positive");
  if (lanes == 1) {
    // One lane: the scalar FFT is faster than the lane FFT's SoA transpose
    // and butterflies at this width, and gives the same bits.
    const auto f = epoch_features(std::vector<double>(xs[0], xs[0] + n), fs);
    linalg::Matrix out(1, kEpochFeatures);
    for (std::size_t c = 0; c < kEpochFeatures; ++c) out(0, c) = f[c];
    return out;
  }

  // Sample-major SoA transpose; per-lane reductions below accumulate in the
  // scalar order (the i loop is outer), the lane loop carries no cross-lane
  // dependency and vectorizes.
  std::vector<double> xt(n * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const double* x = xs[l];
    for (std::size_t i = 0; i < n; ++i) xt[i * lanes + l] = x[i];
  }

  std::vector<double> mean(lanes, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = xt.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) mean[l] += row[l];
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    mean[l] /= static_cast<double>(n);
  }

  // Center in place; fold the rms sum of squares into the same pass.
  std::vector<double> sumsq(lanes, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = xt.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double xc = row[l] - mean[l];
      row[l] = xc;
      sumsq[l] += xc * xc;
    }
  }
  std::vector<double> rms(lanes), var_x(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    rms[l] = std::sqrt(sumsq[l] / static_cast<double>(n));
    var_x[l] = rms[l] * rms[l];
  }

  std::vector<double> var_d1(lanes, 0.0), var_d2(lanes, 0.0);
  std::vector<double> line_length(lanes, 0.0);
  std::vector<std::size_t> zero_crossings(lanes, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = xt.data() + i * lanes;
    const double* prev = row - lanes;
    const double* prev2 = prev - lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double d = row[l] - prev[l];
      var_d1[l] += d * d;
      line_length[l] += std::fabs(d);
      if ((row[l] >= 0.0) != (prev[l] >= 0.0)) ++zero_crossings[l];
      if (i >= 2) {
        const double d2 = row[l] - 2.0 * prev[l] + prev2[l];
        var_d2[l] += d2 * d2;
      }
    }
  }
  std::vector<double> mobility(lanes), complexity(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    var_d1[l] /= static_cast<double>(n - 1);
    var_d2[l] /= static_cast<double>(n - 2);
    line_length[l] /= static_cast<double>(n - 1);
    mobility[l] = (var_x[l] > 0.0) ? std::sqrt(var_d1[l] / var_x[l]) : 0.0;
    const double mobility_d =
        (var_d1[l] > 0.0) ? std::sqrt(var_d2[l] / var_d1[l]) : 0.0;
    complexity[l] = (mobility[l] > 0.0) ? mobility_d / mobility[l] : 0.0;
  }

  // Same nperseg derivation as the scalar path (always a power of two).
  std::size_t nperseg = 1;
  while (nperseg * 2 <= n && static_cast<double>(nperseg) < fs) nperseg *= 2;
  nperseg = std::max<std::size_t>(nperseg, 64);
  nperseg = std::min(nperseg, n);
  const auto psd = dsp::welch_psd_lanes(xt.data(), n, lanes, fs, nperseg);
  const double nyq = fs / 2.0;
  const std::size_t bins = psd.freq_hz.size();

  // dsp::band_power's bin selection and accumulation order, per lane.
  auto band_lanes = [&](double lo, double hi, std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t k = 0; k < bins; ++k) {
      if (psd.freq_hz[k] >= lo && psd.freq_hz[k] <= hi) {
        const double* d = psd.density.data() + k * lanes;
        for (std::size_t l = 0; l < lanes; ++l) out[l] += d[l] * psd.bin_hz;
      }
    }
  };
  std::vector<double> total(lanes);
  band_lanes(0.5, std::min(100.0, nyq * 0.98), total);
  const double bands[5][2] = {
      {0.5, 4.0}, {4.0, 8.0}, {8.0, 13.0}, {13.0, 30.0}, {30.0, 80.0}};
  std::vector<std::vector<double>> rel(5, std::vector<double>(lanes));
  std::vector<double> bp(lanes);
  for (std::size_t b = 0; b < 5; ++b) {
    band_lanes(bands[b][0], std::min(bands[b][1], nyq * 0.98), bp);
    for (std::size_t l = 0; l < lanes; ++l) {
      rel[b][l] = (total[l] <= 0.0) ? 0.0 : bp[l] / total[l];
    }
  }

  // Spectral entropy: the informative-band mask and bin count are
  // lane-invariant; the totals and the entropy sum are per lane.
  const double e_hi = std::min(100.0, nyq);
  std::vector<double> etotal(lanes, 0.0);
  std::size_t ebins = 0;
  for (std::size_t k = 0; k < bins; ++k) {
    if (psd.freq_hz[k] >= 0.5 && psd.freq_hz[k] <= e_hi) {
      const double* d = psd.density.data() + k * lanes;
      for (std::size_t l = 0; l < lanes; ++l) etotal[l] += d[l];
      ++ebins;
    }
  }
  std::vector<double> entropy(lanes, 0.0);
  for (std::size_t l = 0; l < lanes; ++l) {
    if (etotal[l] > 0.0 && ebins > 1) {
      double e = 0.0;
      for (std::size_t k = 0; k < bins; ++k) {
        if (psd.freq_hz[k] >= 0.5 && psd.freq_hz[k] <= e_hi) {
          const double p = psd.density[k * lanes + l] / etotal[l];
          if (p > 0.0) e -= p * std::log(p);
        }
      }
      entropy[l] = e / std::log(static_cast<double>(ebins));
    }
  }

  std::vector<double> dominant(lanes, 0.0);
  for (std::size_t l = 0; l < lanes; ++l) {
    double peak = -1.0;
    for (std::size_t k = 0; k < bins; ++k) {
      if (psd.freq_hz[k] >= 0.5 && psd.density[k * lanes + l] > peak) {
        peak = psd.density[k * lanes + l];
        dominant[l] = psd.freq_hz[k];
      }
    }
  }

  std::vector<double> mn(lanes), mx(lanes);
  for (std::size_t l = 0; l < lanes; ++l) mn[l] = mx[l] = xt[l];
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = xt.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      mn[l] = std::min(mn[l], row[l]);
      mx[l] = std::max(mx[l], row[l]);
    }
  }

  linalg::Matrix out(lanes, kEpochFeatures);
  for (std::size_t l = 0; l < lanes; ++l) {
    const double peak_to_peak = mx[l] - mn[l];
    const double crest =
        (rms[l] > 0.0) ? peak_to_peak / (2.0 * rms[l]) : 0.0;
    out(l, 0) = safe_log(rms[l]);
    out(l, 1) = safe_log(line_length[l]);
    out(l, 2) = mobility[l];
    out(l, 3) = complexity[l];
    out(l, 4) = rel[0][l];
    out(l, 5) = rel[1][l];
    out(l, 6) = rel[2][l];
    out(l, 7) = rel[3][l];
    out(l, 8) = rel[4][l];
    out(l, 9) = entropy[l];
    out(l, 10) = dominant[l];
    out(l, 11) = crest;
    out(l, 12) =
        static_cast<double>(zero_crossings[l]) / static_cast<double>(n);
  }
  return out;
}

linalg::Matrix FeatureExtractor::epoch_matrix(const std::vector<double>& x,
                                              double fs) const {
  const auto epoch_len = static_cast<std::size_t>(config_.epoch_s * fs);
  EFF_REQUIRE(epoch_len >= 64, "epoch too short at this sample rate");
  const std::size_t epochs = x.size() / epoch_len;
  EFF_REQUIRE(epochs >= 1, "record shorter than one epoch");
  linalg::Matrix out(epochs, kEpochFeatures);
  std::vector<double> buf(epoch_len);
  for (std::size_t e = 0; e < epochs; ++e) {
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(e * epoch_len),
              x.begin() + static_cast<std::ptrdiff_t>((e + 1) * epoch_len),
              buf.begin());
    const auto f = epoch_features(buf, fs);
    for (std::size_t c = 0; c < kEpochFeatures; ++c) out(e, c) = f[c];
  }
  return out;
}

linalg::Vector FeatureExtractor::segment_features(const std::vector<double>& x,
                                                  double fs) const {
  const auto epochs = epoch_matrix(x, fs);
  linalg::Vector out(kSegmentFeatures, 0.0);
  for (std::size_t c = 0; c < kEpochFeatures; ++c) {
    double sum = 0.0;
    double mx = -1e300;
    for (std::size_t e = 0; e < epochs.rows(); ++e) {
      sum += epochs(e, c);
      mx = std::max(mx, epochs(e, c));
    }
    out[c] = sum / static_cast<double>(epochs.rows());
    out[kEpochFeatures + c] = mx;
  }
  return out;
}

}  // namespace efficsense::classify
