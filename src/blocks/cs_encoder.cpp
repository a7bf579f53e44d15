#include "blocks/cs_encoder.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/resample.hpp"
#include "sim/arena.hpp"
#include "power/models.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

CsEncoderBlock::CsEncoderBlock(std::string name,
                               const power::TechnologyParams& tech,
                               const power::DesignParams& design,
                               cs::SparseBinaryMatrix phi,
                               std::uint64_t mismatch_seed,
                               std::uint64_t noise_seed,
                               CsEncoderOptions options)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      phi_(std::move(phi)),
      options_(options),
      noise_seed_(noise_seed) {
  design_.validate();
  EFF_REQUIRE(design_.uses_cs(), "design does not enable CS");
  EFF_REQUIRE(phi_.rows() == static_cast<std::size_t>(design_.cs_m) &&
                  phi_.cols() == static_cast<std::size_t>(design_.cs_n_phi),
              "sensing matrix does not match the design dimensions");
  EFF_REQUIRE(phi_.sparsity() == static_cast<std::size_t>(design_.cs_sparsity),
              "sensing matrix sparsity does not match the design");

  // Fabricate the capacitor arrays once (frozen mismatch).
  draw_caps(mismatch_seed, c_hold_f_, c_sample_f_);

  params().set("m", design_.cs_m);
  params().set("n_phi", design_.cs_n_phi);
  params().set("sparsity", design_.cs_sparsity);
  params().set("c_hold_f", design_.cs_c_hold_f);
  params().set("c_sample_f", design_.cs_c_sample_f);
}

void CsEncoderBlock::draw_caps(std::uint64_t mismatch_seed,
                               std::vector<double>& c_hold,
                               std::vector<double>& c_sample) const {
  Rng rng(mismatch_seed);
  const double sig_h = tech_.sigma_cap_mismatch(design_.cs_c_hold_f);
  const double sig_s = tech_.sigma_cap_mismatch(design_.cs_c_sample_f);
  c_hold.resize(phi_.rows());
  for (auto& c : c_hold) {
    const double eps = options_.enable_mismatch ? rng.gaussian(0.0, sig_h) : 0.0;
    c = design_.cs_c_hold_f * (1.0 + eps);
  }
  c_sample.resize(static_cast<std::size_t>(design_.cs_sparsity));
  for (auto& c : c_sample) {
    const double eps = options_.enable_mismatch ? rng.gaussian(0.0, sig_s) : 0.0;
    c = design_.cs_c_sample_f * (1.0 + eps);
  }
}

void CsEncoderBlock::set_lane_mismatch_seeds(
    const std::vector<std::uint64_t>& seeds) {
  lane_c_hold_f_.assign(seeds.size(), {});
  lane_c_sample_f_.assign(seeds.size(), {});
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    draw_caps(seeds[k], lane_c_hold_f_[k], lane_c_sample_f_[k]);
  }
}

cs::ChargeSharingGains CsEncoderBlock::nominal_gains() const {
  return cs::charge_sharing_gains(design_.cs_c_sample_f, design_.cs_c_hold_f);
}

void CsEncoderBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  const bool shared_noise = lane_noise_seeds_.empty();
  EFF_REQUIRE(!x.empty(), "CS encoder input is empty");
  const double f_sample = design_.f_sample_hz();
  EFF_REQUIRE(x.fs() >= f_sample,
              "CS encoder cannot sample above the input rate");
  EFF_REQUIRE(lane_c_hold_f_.empty() || lane_c_hold_f_.size() == lanes,
              "CS encoder lane instance count does not match the batch width");
  EFF_REQUIRE(shared_noise || lane_noise_seeds_.size() == lanes,
              "CS encoder lane noise seed count does not match the batch width");

  const auto n_phi = static_cast<std::size_t>(design_.cs_n_phi);
  const auto m = static_cast<std::size_t>(design_.cs_m);
  const double t_sample = 1.0 / f_sample;
  const double kT = units::kBoltzmann * tech_.temperature_k;

  // Sample the quasi-continuous input at f_sample — once per stored row
  // (one shared resample when the input is a broadcast bank).
  const double duration_s = static_cast<double>(x.samples()) / x.fs();
  const auto n_samples =
      static_cast<std::size_t>(std::floor(duration_s * f_sample));
  const auto times = dsp::uniform_times(n_samples, f_sample);
  sim::LaneBank sampled_bank = sim::LaneBank::acquire(
      arena, f_sample, lanes, n_samples, x.uniform());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    dsp::sample_at_times(x.lane(r), x.samples(), x.fs(), times.data(),
                         n_samples, sampled_bank.lane(r));
  }

  const std::size_t frames = n_samples / n_phi;

  // The kT/C draw order (frame-major, column, support entry, two draws per
  // share) is data-independent, so one standard-normal buffer filled from
  // the shared stream serves every row; per-lane streams refill it.
  std::size_t draws_per_frame = 0;
  if (options_.enable_noise) {
    for (std::size_t j = 0; j < n_phi; ++j) {
      draws_per_frame += 2 * phi_.column_support(j).size();
    }
  }
  const std::size_t n_draws = frames * draws_per_frame;
  std::vector<double> zbuf = arena.acquire(n_draws);
  if (shared_noise && n_draws > 0) {
    Rng rng(derive_seed(noise_seed_, run_index()));
    rng.fill_gaussian(zbuf.data(), n_draws);
  }

  // Output: the M held voltages per frame at the rate the SAR digitizes
  // them. One capacitor instance and one noise stream over a uniform input
  // make every lane the same row, computed once.
  const double out_rate = design_.tx_sample_rate_hz();
  sim::LaneBank bank = sim::LaneBank::acquire(
      arena, out_rate, lanes, frames * m,
      lane_c_hold_f_.empty() && shared_noise && x.uniform());

  const double i_leak = (options_.i_leak_override_a > 0.0)
                            ? options_.i_leak_override_a
                            : tech_.i_leak_a;
  std::vector<double> v_hold(m);
  std::vector<double> last_event_t(m);

  for (std::size_t k = 0; k < bank.rows(); ++k) {
    if (!shared_noise && n_draws > 0) {
      Rng rng(derive_seed(lane_noise_seeds_[k], run_index()));
      rng.fill_gaussian(zbuf.data(), n_draws);
    }
    const std::vector<double>& c_hold =
        lane_c_hold_f_.empty() ? c_hold_f_ : lane_c_hold_f_[k];
    const std::vector<double>& c_sample =
        lane_c_sample_f_.empty() ? c_sample_f_ : lane_c_sample_f_[k];
    const double* sampled = sampled_bank.lane(k);
    double* out = bank.lane(k);
    const double* zp = zbuf.data();

    auto apply_leak = [&](std::size_t row, double now, double c_h) {
      if (!options_.enable_leakage) return;
      const double dt = now - last_event_t[row];
      last_event_t[row] = now;
      if (dt <= 0.0) return;
      const double droop = i_leak * dt / c_h;
      // Leakage discharges the cap toward ground without crossing zero.
      if (v_hold[row] > 0.0) {
        v_hold[row] = std::max(0.0, v_hold[row] - droop);
      } else {
        v_hold[row] = std::min(0.0, v_hold[row] + droop);
      }
    };

    for (std::size_t f = 0; f < frames; ++f) {
      std::fill(v_hold.begin(), v_hold.end(), 0.0);
      std::fill(last_event_t.begin(), last_event_t.end(), 0.0);

      for (std::size_t j = 0; j < n_phi; ++j) {
        const double now = static_cast<double>(j) * t_sample;
        const auto& support = phi_.column_support(j);
        for (std::size_t si = 0; si < support.size(); ++si) {
          const std::size_t row = support[si];
          const double c_s = c_sample[si % c_sample.size()];
          const double c_h = c_hold[row];

          // Sample x_j on C_sample: kT/C sampling noise. gaussian(0, sigma)
          // written out as 0.0 + sigma * z over the bulk-filled draws.
          double v_s = sampled[f * n_phi + j];
          if (options_.enable_noise) {
            v_s += 0.0 + std::sqrt(kT / c_s) * (*zp++);
          }

          apply_leak(row, now, c_h);

          // Passive charge redistribution (Eq. 1) with the actual
          // capacitors.
          double v_new = (c_s * v_s + c_h * v_hold[row]) / (c_s + c_h);
          if (options_.enable_noise) {
            v_new += 0.0 + std::sqrt(kT / (c_s + c_h)) * (*zp++);
          }
          v_hold[row] = v_new;
        }
      }

      // Readout at the end of the frame (sequential SAR conversions).
      const double frame_end = static_cast<double>(n_phi) * t_sample;
      for (std::size_t row = 0; row < m; ++row) {
        apply_leak(row, frame_end, c_hold[row]);
        out[f * m + row] = v_hold[row];
      }
    }
  }
  arena.release(std::move(zbuf));
  sampled_bank.release_to(arena);
  outputs.push_back(std::move(bank));
}

double CsEncoderBlock::power_watts() const {
  return power::cs_encoder_power(tech_, design_);
}

double CsEncoderBlock::area_unit_caps() const {
  return (static_cast<double>(design_.cs_m) * design_.cs_c_hold_f +
          static_cast<double>(design_.cs_sparsity) * design_.cs_c_sample_f) /
         tech_.c_u_min_f;
}

}  // namespace efficsense::blocks
