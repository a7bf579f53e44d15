#include "blocks/sar_adc.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lane_kernels.hpp"
#include "power/models.hpp"
#include "sim/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace efficsense::blocks {

namespace {

// Successive approximation over one lane's samples. Samples are independent
// and the output depends only on the decided code bits, so the kernel may
// quantize several samples at once without touching each sample's
// arithmetic: `draws` is the comparator-noise buffer in sample-major,
// bit-minor order. This portable loop is the reference the AVX2 variant
// matches bit for bit, and the tail handler for its last samples.
void sar_quantize_scalar(const double* xr, double* o, const double* draws,
                         const double* w, int n, std::size_t n_samples,
                         double v_fs, double sigma_cmp_norm,
                         double code_scale) {
  const double* draw = draws;
  for (std::size_t i = 0; i < n_samples; ++i) {
    double v_norm = std::clamp((xr[i] + v_fs / 2.0) / v_fs, 0.0, 1.0);
    double level = 0.0;
    std::uint64_t code = 0;
    for (int b = 0; b < n; ++b) {
      const double trial = level + w[b];
      const double decision = v_norm + sigma_cmp_norm * (*draw++);
      if (decision >= trial) {
        level = trial;
        code |= (1ULL << (n - 1 - b));
      }
    }
    o[i] = (static_cast<double>(code) + 0.5) * code_scale * v_fs - v_fs / 2.0;
  }
}

#if defined(__x86_64__)
// Four samples per step, branchless: the bit decision becomes a compare
// mask, `level` updates through a blend, and the code accumulates the bit
// values as exact small integers in doubles (sums stay below 2^bits, so
// every partial sum is representable). mul and add stay separate — the
// portable loop is built without FMA contraction, so fusing here would
// change the decided codes near comparator-threshold ties.
__attribute__((target("avx2"))) void sar_quantize_avx2(
    const double* xr, double* o, const double* draws, const double* w, int n,
    std::size_t n_samples, double v_fs, double sigma_cmp_norm,
    double code_scale) {
  const __m256d half_fs = _mm256_set1_pd(v_fs / 2.0);
  const __m256d vfs = _mm256_set1_pd(v_fs);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sigma = _mm256_set1_pd(sigma_cmp_norm);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d scale = _mm256_set1_pd(code_scale);
  std::size_t i = 0;
  for (; i + 4 <= n_samples; i += 4) {
    __m256d v = _mm256_loadu_pd(xr + i);
    v = _mm256_div_pd(_mm256_add_pd(v, half_fs), vfs);
    // clamp to [0, 1]; v only feeds >= comparisons downstream, where the
    // maxpd sign-of-zero difference from std::clamp is unobservable.
    v = _mm256_min_pd(_mm256_max_pd(v, zero), one);
    __m256d level = zero;
    __m256d codef = zero;
    const double* dbase = draws + i * static_cast<std::size_t>(n);
    for (int b = 0; b < n; ++b) {
      const __m256d wb = _mm256_set1_pd(w[b]);
      const __m256d trial = _mm256_add_pd(level, wb);
      // This sample block's draws for bit b sit n apart (bit-minor order).
      const __m256d db = _mm256_set_pd(dbase[3 * n + b], dbase[2 * n + b],
                                       dbase[n + b], dbase[b]);
      const __m256d decision = _mm256_add_pd(v, _mm256_mul_pd(sigma, db));
      const __m256d ge = _mm256_cmp_pd(decision, trial, _CMP_GE_OQ);
      level = _mm256_blendv_pd(level, trial, ge);
      const __m256d bitval =
          _mm256_set1_pd(static_cast<double>(1ULL << (n - 1 - b)));
      codef = _mm256_add_pd(codef, _mm256_and_pd(ge, bitval));
    }
    const __m256d vhat = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(codef, half), scale), vfs),
        half_fs);
    _mm256_storeu_pd(o + i, vhat);
  }
  // Clear the upper YMM halves before returning to SSE code: the compiler
  // emits no vzeroupper here, and dirty upper state slows every later
  // SSE-encoded libm call (the Box-Muller log/sin/cos of the noise fills)
  // several-fold.
  _mm256_zeroupper();
  sar_quantize_scalar(xr + i, o + i, draws + i * static_cast<std::size_t>(n),
                      w, n, n_samples - i, v_fs, sigma_cmp_norm, code_scale);
}
#endif

void sar_quantize_lane(const double* xr, double* o, const double* draws,
                       const double* w, int n, std::size_t n_samples,
                       double v_fs, double sigma_cmp_norm, double code_scale) {
#if defined(__x86_64__)
  if (linalg::cpu_has_avx2()) {
    sar_quantize_avx2(xr, o, draws, w, n, n_samples, v_fs, sigma_cmp_norm,
                      code_scale);
    return;
  }
#endif
  sar_quantize_scalar(xr, o, draws, w, n, n_samples, v_fs, sigma_cmp_norm,
                      code_scale);
}

}  // namespace

SarAdcBlock::SarAdcBlock(std::string name, const power::TechnologyParams& tech,
                         const power::DesignParams& design,
                         std::uint64_t mismatch_seed, std::uint64_t noise_seed,
                         bool include_sampling_network)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      noise_seed_(noise_seed),
      include_sampling_network_(include_sampling_network) {
  design_.validate();
  params().set("bits", design_.adc_bits);
  params().set("v_fs", design_.v_fs);

  // Draw the fabricated DAC array once. Bit b (MSB first) is built from
  // 2^b unit caps, so its relative sigma improves as 1/sqrt(2^b).
  weights_ = draw_weights(mismatch_seed);
}

std::vector<double> SarAdcBlock::draw_weights(
    std::uint64_t mismatch_seed) const {
  const int n = design_.adc_bits;
  const double sigma_unit = tech_.sigma_cap_mismatch(
      std::max(design_.dac_c_unit_f, tech_.c_u_min_f));
  Rng rng(mismatch_seed);
  std::vector<double> caps(n);  // in units of C_u, MSB first
  double total = 1.0;           // dummy LSB cap (ideal C_u terminator)
  for (int b = 0; b < n; ++b) {
    const double nominal = std::pow(2.0, n - 1 - b);
    const double sigma_b = sigma_unit / std::sqrt(nominal);
    caps[b] = nominal * (1.0 + rng.gaussian(0.0, sigma_b));
    total += caps[b];
  }
  std::vector<double> weights(n);
  for (int b = 0; b < n; ++b) weights[b] = caps[b] / total;
  return weights;
}

void SarAdcBlock::set_lane_mismatch_seeds(
    const std::vector<std::uint64_t>& seeds) {
  lane_weights_.clear();
  lane_weights_.reserve(seeds.size());
  for (std::uint64_t s : seeds) lane_weights_.push_back(draw_weights(s));
}

double SarAdcBlock::lsb() const {
  return design_.v_fs / std::pow(2.0, design_.adc_bits);
}

void SarAdcBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  EFF_REQUIRE(!x.empty(), "ADC input is empty");
  EFF_REQUIRE(lane_weights_.empty() || lane_weights_.size() == lanes,
              "ADC lane mismatch-instance count does not match the batch width");
  const bool shared_noise = lane_noise_seeds_.empty();
  EFF_REQUIRE(shared_noise || lane_noise_seeds_.size() == lanes,
              "ADC lane noise seed count does not match the batch width");

  const int n = design_.adc_bits;
  const double v_fs = design_.v_fs;
  const double sigma_cmp_norm = design_.comparator_noise_vrms / v_fs;
  const double code_scale = 1.0 / std::pow(2.0, n);
  const std::size_t n_samples = x.samples();
  const std::size_t n_draws = n_samples * static_cast<std::size_t>(n);

  // One DAC instance and one comparator stream over a uniform input: every
  // lane is the same row, computed once.
  sim::LaneBank bank = sim::LaneBank::acquire(
      arena, x.fs(), lanes, n_samples,
      lane_weights_.empty() && shared_noise && x.uniform());
  // One comparator-noise draw per bit decision, bulk-generated in the order
  // the successive approximation consumes them (sample-major, bit-minor).
  std::vector<double> noise = arena.acquire(n_draws);
  if (shared_noise) {
    // One shared comparator stream: K instances seeded identically would
    // each draw this exact sequence, so one bulk fill serves all rows (the
    // per-row draw pointer simply restarts at the front).
    Rng rng(derive_seed(noise_seed_, run_index()));
    rng.fill_gaussian(noise.data(), n_draws);
  }
  for (std::size_t k = 0; k < bank.rows(); ++k) {
    if (!shared_noise) {
      Rng rng(derive_seed(lane_noise_seeds_[k], run_index()));
      rng.fill_gaussian(noise.data(), n_draws);
    }
    // Successive approximation with the mismatched hardware weights;
    // receiver-side reconstruction with *nominal* binary weights.
    const std::vector<double>& w =
        lane_weights_.empty() ? weights_ : lane_weights_[k];
    sar_quantize_lane(x.lane(k), bank.lane(k), noise.data(), w.data(), n,
                      n_samples, v_fs, sigma_cmp_norm, code_scale);
  }
  arena.release(std::move(noise));
  outputs.push_back(std::move(bank));
}

double SarAdcBlock::power_watts() const {
  double p = power::comparator_power(tech_, design_) +
             power::sar_logic_power(tech_, design_) +
             power::dac_power(tech_, design_);
  if (include_sampling_network_) {
    p += power::sample_hold_power(tech_, design_);
  }
  return p;
}

double SarAdcBlock::area_unit_caps() const {
  return std::pow(2.0, design_.adc_bits) *
         std::max(design_.dac_c_unit_f, tech_.c_u_min_f) / tech_.c_u_min_f;
}

}  // namespace efficsense::blocks
