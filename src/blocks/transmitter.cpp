#include "blocks/transmitter.hpp"

#include <algorithm>
#include <cmath>

#include "power/models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

TransmitterBlock::TransmitterBlock(std::string name,
                                   const power::TechnologyParams& tech,
                                   const power::DesignParams& design,
                                   std::uint64_t seed, double bit_error_rate)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      seed_(seed),
      ber_(bit_error_rate) {
  design_.validate();
  EFF_REQUIRE(ber_ >= 0.0 && ber_ < 1.0, "BER must lie in [0, 1)");
  // The bit-flip model assumes N-bit mid-tread words; the digital MAC's
  // widened sums use a different format, so only lossless TX is modeled.
  EFF_REQUIRE(ber_ == 0.0 || design_.tx_bits() == design_.adc_bits,
              "BER injection requires N-bit words");
  params().set("e_bit_j", tech_.e_bit_j);
  params().set("ber", ber_);
}

void TransmitterBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  const bool shared = lane_noise_seeds_.empty();
  EFF_REQUIRE(shared || lane_noise_seeds_.size() == lanes,
              "transmitter lane seed count does not match the batch width");
  bits_sent_ = static_cast<std::uint64_t>(x.samples()) *
               static_cast<std::uint64_t>(design_.tx_bits());
  if (ber_ == 0.0) {
    // Lossless link: forward the bank unchanged (uniformity preserved) and
    // only account the transmitted bits; the channel stream is untouched.
    sim::LaneBank bank = sim::LaneBank::acquire(arena, x.fs(), lanes,
                                                x.samples(), x.uniform());
    std::copy(x.data().begin(), x.data().end(), bank.data().begin());
    outputs.push_back(std::move(bank));
    return;
  }
  const int n_bits = design_.adc_bits;
  const double v_fs = design_.v_fs;
  const double levels = std::pow(2.0, n_bits);
  const std::size_t n = x.samples();
  // A shared channel stream over a uniform input flips the same bits in
  // every lane: one row serves them all.
  sim::LaneBank bank = sim::LaneBank::acquire(arena, x.fs(), lanes, n,
                                              shared && x.uniform());
  for (std::size_t k = 0; k < bank.rows(); ++k) {
    // Each row replays the per-run stream: shared mode re-seeds the same
    // generator per row (identical flips across lanes, as K instances with
    // one seed would see); per-lane seeds draw independently.
    Rng rng(derive_seed(shared ? seed_ : lane_noise_seeds_[k], run_index()));
    const double* xr = x.lane(k);
    double* o = bank.lane(k);
    for (std::size_t i = 0; i < n; ++i) {
      // Recover the mid-tread code this voltage represents.
      auto code = static_cast<std::int64_t>(
          std::floor((xr[i] + v_fs / 2.0) / v_fs * levels));
      code = std::clamp<std::int64_t>(code, 0,
                                      static_cast<std::int64_t>(levels) - 1);
      for (int b = 0; b < n_bits; ++b) {
        if (rng.chance(ber_)) code ^= (1LL << b);
      }
      o[i] = (static_cast<double>(code) + 0.5) / levels * v_fs - v_fs / 2.0;
    }
  }
  outputs.push_back(std::move(bank));
}

double TransmitterBlock::power_watts() const {
  return power::transmitter_power(tech_, design_);
}

}  // namespace efficsense::blocks
