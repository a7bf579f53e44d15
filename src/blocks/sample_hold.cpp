#include "blocks/sample_hold.hpp"

#include <cmath>

#include "dsp/resample.hpp"
#include "power/models.hpp"
#include "sim/arena.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

SampleHoldBlock::SampleHoldBlock(std::string name,
                                 const power::TechnologyParams& tech,
                                 const power::DesignParams& design,
                                 std::uint64_t seed, double aperture_jitter_s)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      seed_(seed),
      jitter_s_(aperture_jitter_s),
      cap_f_(design.sh_cap_f(tech)) {
  design_.validate();
  EFF_REQUIRE(jitter_s_ >= 0.0, "aperture jitter must be non-negative");
  EFF_REQUIRE(jitter_s_ < 0.1 / design_.f_sample_hz(),
              "aperture jitter must stay well below the sample period");
  params().set("f_sample_hz", design_.f_sample_hz());
  params().set("cap_f", cap_f_);
  params().set("aperture_jitter_s", jitter_s_);
}

double SampleHoldBlock::kt_c_noise_vrms() const {
  return std::sqrt(units::kBoltzmann * tech_.temperature_k / cap_f_);
}

void SampleHoldBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  EFF_REQUIRE(!x.empty(), "S&H input is empty");
  const double f_sample = design_.f_sample_hz();
  EFF_REQUIRE(x.fs() >= f_sample, "S&H cannot sample above the input rate");
  const bool shared = lane_noise_seeds_.empty();
  EFF_REQUIRE(shared || lane_noise_seeds_.size() == lanes,
              "S&H lane seed count does not match the batch width");

  const double duration_s = static_cast<double>(x.samples()) / x.fs();
  const auto n_out =
      static_cast<std::size_t>(std::floor(duration_s * f_sample));
  std::vector<double> times = arena.acquire(n_out);
  std::vector<double> noise = arena.acquire(n_out);
  // A shared stream over a uniform input yields one row for every lane.
  sim::LaneBank bank = sim::LaneBank::acquire(arena, f_sample, lanes, n_out,
                                              shared && x.uniform());
  const double sigma = kt_c_noise_vrms();
  for (std::size_t k = 0; k < bank.rows(); ++k) {
    for (std::size_t i = 0; i < n_out; ++i) {
      times[i] = static_cast<double>(i) / f_sample;
    }
    Rng rng(derive_seed(shared ? seed_ : lane_noise_seeds_[k], run_index()));
    if (jitter_s_ > 0.0) {
      // Aperture jitter: each sampling instant wanders by a Gaussian offset.
      rng.fill_gaussian(noise.data(), n_out);
      for (std::size_t i = 0; i < n_out; ++i) {
        times[i] += jitter_s_ * noise[i];
      }
    }
    double* o = bank.lane(k);
    dsp::sample_at_times(x.lane(k), x.samples(), x.fs(), times.data(), n_out,
                         o);
    // kT/C noise of the sampling capacitor.
    rng.fill_gaussian(noise.data(), n_out);
    for (std::size_t i = 0; i < n_out; ++i) {
      o[i] += sigma * noise[i];
    }
  }
  arena.release(std::move(noise));
  arena.release(std::move(times));
  outputs.push_back(std::move(bank));
}

double SampleHoldBlock::power_watts() const {
  return power::sample_hold_power(tech_, design_);
}

double SampleHoldBlock::area_unit_caps() const {
  return cap_f_ / tech_.c_u_min_f;
}

}  // namespace efficsense::blocks
