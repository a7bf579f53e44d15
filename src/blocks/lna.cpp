#include "blocks/lna.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/biquad.hpp"
#include "sim/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

LnaBlock::LnaBlock(std::string name, const power::TechnologyParams& tech,
                   const power::DesignParams& design, std::uint64_t seed,
                   double hd3_db)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      seed_(seed) {
  design_.validate();
  EFF_REQUIRE(hd3_db < 0.0, "HD3 must be negative dB");
  clip_level_ = design_.v_fs / 2.0;
  // For y = x - k3 x^3, HD3 of a tone of amplitude A is (k3 A^2 / 4).
  const double hd3 = std::pow(10.0, hd3_db / 20.0);
  k3_ = 4.0 * hd3 / (clip_level_ * clip_level_);
  params().set("gain", design_.lna_gain);
  params().set("noise_vrms", design_.lna_noise_vrms);
  params().set("bw_hz", design_.bw_lna_hz());
  params().set("hd3_db", hd3_db);
}

void LnaBlock::process_batch(std::size_t lanes,
                             const std::vector<const sim::LaneBank*>& inputs,
                             std::vector<sim::LaneBank>& outputs,
                             sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  EFF_REQUIRE(!x.empty(), "LNA input is empty");
  EFF_REQUIRE(x.fs() > 2.0 * design_.bw_lna_hz(),
              "simulation rate too low for the LNA bandwidth");
  const bool shared = lane_noise_seeds_.empty();
  EFF_REQUIRE(shared || lane_noise_seeds_.size() == lanes,
              "LNA lane seed count does not match the batch width");

  // Input-referred noise: the spec is the rms noise integrated over BW_LNA,
  // so the per-sample sigma of the white stream at rate fs must be scaled by
  // sqrt(fs / (2 BW_LNA)); the low-pass below then leaves exactly the
  // specified in-band rms.
  const double sigma_sample =
      design_.lna_noise_vrms * std::sqrt(x.fs() / (2.0 * design_.bw_lna_hz()));
  const std::size_t n = x.samples();
  // One shared noise stream over one shared input: every lane is the same
  // row, so it is computed once and emitted as a uniform bank.
  sim::LaneBank bank = sim::LaneBank::acquire(arena, x.fs(), lanes, n,
                                              shared && x.uniform());
  std::vector<double> noise = arena.acquire(n);
  const double g = design_.lna_gain;
  // Row k draws from lane k's stream at this run index: noise injection +
  // gain, bandwidth limit, compression + clip, staged over whole arrays.
  for (std::size_t k = 0; k < bank.rows(); ++k) {
    Rng rng(derive_seed(shared ? seed_ : lane_noise_seeds_[k], run_index()));
    rng.fill_gaussian(noise.data(), n);
    const double* xr = x.lane(k);
    double* o = bank.lane(k);
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = (xr[i] + sigma_sample * noise[i]) * g;
    }
    auto lpf = dsp::butterworth_lowpass(2, design_.bw_lna_hz(), x.fs());
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = lpf.process(o[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double v = o[i];
      const double c = v - k3_ * v * v * v;  // 3rd-order compression
      o[i] = std::clamp(c, -clip_level_, clip_level_);
    }
  }
  arena.release(std::move(noise));
  outputs.push_back(std::move(bank));
}

double LnaBlock::power_watts() const { return power::lna_power(tech_, design_); }

power::LnaLimit LnaBlock::limiting_factor() const {
  return power::lna_limit(tech_, design_);
}

}  // namespace efficsense::blocks
