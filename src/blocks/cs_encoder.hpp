#pragma once
// The passive charge-sharing compressive-sensing encoder of Fig. 5.
//
// Per frame of N_Phi input samples the block computes y = Phi x entirely
// with switched capacitors: sample j is taken on a sampling capacitor
// C_sample (kT/C noise), then charge-shared onto the hold capacitors of the
// s rows where the s-SRBM column j is non-zero. Every share realizes
// V <- a x + b V (Eq. 1), so earlier samples decay geometrically — this is
// the *nominal* behaviour the reconstructor compensates. Non-idealities:
//  * per-capacitor mismatch (frozen per instance, Pelgrom-style sigma),
//  * kT/(C_s + C_h) sampled noise on every share,
//  * hold-capacitor leakage droop between shares and readout.
// Output: the M held voltages per frame, as a waveform at rate
// f_sample * M / N_Phi (the rate at which the SAR digitizes them).

#include <cstdint>

#include "cs/effective.hpp"
#include "cs/srbm.hpp"
#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

struct CsEncoderOptions {
  bool enable_mismatch = true;
  bool enable_noise = true;
  /// Hold-capacitor leakage droop. Off by default: at the Table III
  /// extracted I_leak = 1 pA, a 0.5 pF hold cap would droop by >1 V over
  /// the 714 ms frame — i.e. the architecture *requires* low-leakage switch
  /// design (sub-fA) or interleaved readout. The ablation bench quantifies
  /// exactly this effect; see DESIGN.md.
  bool enable_leakage = false;
  /// Leakage current actually applied when enable_leakage is set (allows
  /// sweeping "how good must the switches be"); defaults to the technology
  /// I_leak when <= 0.
  double i_leak_override_a = -1.0;
};

class CsEncoderBlock final : public sim::Block {
 public:
  CsEncoderBlock(std::string name, const power::TechnologyParams& tech,
                 const power::DesignParams& design,
                 cs::SparseBinaryMatrix phi, std::uint64_t mismatch_seed,
                 std::uint64_t noise_seed, CsEncoderOptions options = {});

  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;
  double area_unit_caps() const override;

  const cs::SparseBinaryMatrix& sensing_matrix() const { return phi_; }
  /// Nominal charge-sharing gains (what the reconstructor should assume).
  cs::ChargeSharingGains nominal_gains() const;

  /// Fabricate one capacitor-array instance per lane for batched runs:
  /// lane k's arrays are drawn exactly as a scalar block constructed with
  /// seeds[k] would draw them (Phi itself is shared across lanes).
  void set_lane_mismatch_seeds(const std::vector<std::uint64_t>& seeds);
  /// Per-lane kT/C noise seeds; empty (default) = all lanes share the
  /// constructor noise seed's stream (one bulk draw serves every lane).
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  void draw_caps(std::uint64_t mismatch_seed, std::vector<double>& c_hold,
                 std::vector<double>& c_sample) const;

  power::TechnologyParams tech_;
  power::DesignParams design_;
  cs::SparseBinaryMatrix phi_;
  CsEncoderOptions options_;
  std::uint64_t noise_seed_;
  std::vector<double> c_hold_f_;    // actual hold caps (with mismatch) [F]
  std::vector<double> c_sample_f_;  // actual sampling caps [F]
  std::vector<std::vector<double>> lane_c_hold_f_;    // per-lane instances
  std::vector<std::vector<double>> lane_c_sample_f_;  // per-lane instances
  std::vector<std::uint64_t> lane_noise_seeds_;
};

}  // namespace efficsense::blocks
