#include "blocks/cs_encoder_active.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/resample.hpp"
#include "power/models.hpp"
#include "sim/arena.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

ActiveCsEncoderBlock::ActiveCsEncoderBlock(
    std::string name, const power::TechnologyParams& tech,
    const power::DesignParams& design, cs::SparseBinaryMatrix phi,
    std::uint64_t mismatch_seed, std::uint64_t noise_seed,
    ActiveCsEncoderOptions options)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      phi_(std::move(phi)),
      options_(options),
      noise_seed_(noise_seed) {
  design_.validate();
  EFF_REQUIRE(design_.uses_cs(), "design does not enable CS");
  EFF_REQUIRE(design_.cs_style == power::CsStyle::ActiveIntegrator,
              "design is not configured for the active-integrator style");
  EFF_REQUIRE(phi_.rows() == static_cast<std::size_t>(design_.cs_m) &&
                  phi_.cols() == static_cast<std::size_t>(design_.cs_n_phi),
              "sensing matrix does not match the design dimensions");

  Rng rng(mismatch_seed);
  const double sig_i = tech_.sigma_cap_mismatch(design_.cs_c_int_f);
  const double sig_s = tech_.sigma_cap_mismatch(design_.cs_c_sample_f);
  c_int_f_.resize(phi_.rows());
  for (auto& c : c_int_f_) {
    const double eps = options_.enable_mismatch ? rng.gaussian(0.0, sig_i) : 0.0;
    c = design_.cs_c_int_f * (1.0 + eps);
  }
  c_sample_f_.resize(static_cast<std::size_t>(design_.cs_sparsity));
  for (auto& c : c_sample_f_) {
    const double eps = options_.enable_mismatch ? rng.gaussian(0.0, sig_s) : 0.0;
    c = design_.cs_c_sample_f * (1.0 + eps);
  }

  params().set("m", design_.cs_m);
  params().set("n_phi", design_.cs_n_phi);
  params().set("c_int_f", design_.cs_c_int_f);
  params().set("c_sample_f", design_.cs_c_sample_f);
}

cs::ChargeSharingGains ActiveCsEncoderBlock::nominal_gains() const {
  cs::ChargeSharingGains g;
  g.a = design_.cs_c_sample_f / design_.cs_c_int_f;
  g.b = 1.0;  // virtual ground: stored charge is never redistributed
  return g;
}

void ActiveCsEncoderBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  EFF_REQUIRE(!x.empty(), "CS encoder input is empty");
  const double f_sample = design_.f_sample_hz();
  EFF_REQUIRE(x.fs() >= f_sample,
              "CS encoder cannot sample above the input rate");

  const auto n_phi = static_cast<std::size_t>(design_.cs_n_phi);
  const auto m = static_cast<std::size_t>(design_.cs_m);
  const double kT = units::kBoltzmann * tech_.temperature_k;

  const double duration_s = static_cast<double>(x.samples()) / x.fs();
  const auto n_samples =
      static_cast<std::size_t>(std::floor(duration_s * f_sample));
  const auto times = dsp::uniform_times(n_samples, f_sample);
  std::vector<double> sampled = arena.acquire(n_samples);

  const std::size_t frames = n_samples / n_phi;
  sim::LaneBank bank = sim::LaneBank::acquire(
      arena, design_.tx_sample_rate_hz(), lanes, frames * m, x.uniform());
  std::vector<double> v_int(m);

  for (std::size_t k = 0; k < bank.rows(); ++k) {
    dsp::sample_at_times(x.lane(k), x.samples(), x.fs(), times.data(),
                         n_samples, sampled.data());
    Rng rng(derive_seed(noise_seed_, run_index()));
    double* out = bank.lane(k);
    for (std::size_t f = 0; f < frames; ++f) {
      std::fill(v_int.begin(), v_int.end(), 0.0);
      for (std::size_t j = 0; j < n_phi; ++j) {
        const auto& support = phi_.column_support(j);
        for (std::size_t si = 0; si < support.size(); ++si) {
          const std::size_t row = support[si];
          const double c_s = c_sample_f_[si % c_sample_f_.size()];
          const double c_i = c_int_f_[row];

          double v_s = sampled[f * n_phi + j];
          if (options_.enable_noise) {
            v_s += rng.gaussian(0.0, std::sqrt(kT / c_s));   // sampling kT/C
            v_s += rng.gaussian(0.0, options_.ota_noise_vrms);  // OTA noise
          }
          // Exact charge transfer onto the integration cap (virtual
          // ground): dV = (C_s / C_int) * v_s, no attenuation of the stored
          // value.
          v_int[row] += (c_s / c_i) * v_s;
        }
      }
      std::copy(v_int.begin(), v_int.end(), out + f * m);
    }
  }
  arena.release(std::move(sampled));
  outputs.push_back(std::move(bank));
}

double ActiveCsEncoderBlock::power_watts() const {
  return power::cs_encoder_power(tech_, design_);
}

double ActiveCsEncoderBlock::area_unit_caps() const {
  return (static_cast<double>(design_.cs_m) * design_.cs_c_int_f +
          static_cast<double>(design_.cs_sparsity) * design_.cs_c_sample_f) /
         tech_.c_u_min_f;
}

}  // namespace efficsense::blocks
