#pragma once
// Sample & hold: samples the quasi-continuous LNA output at f_sample with
// linear interpolation between simulation points, adding the kT/C noise of
// its sampling capacitor. Power model per Table II [14].

#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

class SampleHoldBlock final : public sim::Block {
 public:
  /// `aperture_jitter_s` is the rms sampling-instant jitter (0 disables).
  /// Jitter converts signal slew into noise: for a tone at f the SNR bound
  /// is -20 log10(2 pi f sigma_t), which the tests verify.
  SampleHoldBlock(std::string name, const power::TechnologyParams& tech,
                  const power::DesignParams& design, std::uint64_t seed,
                  double aperture_jitter_s = 0.0);

  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;
  double area_unit_caps() const override;

  double cap_farad() const { return cap_f_; }
  double kt_c_noise_vrms() const;

  /// Per-lane noise seeds for batched runs (jitter + kT/C streams); empty
  /// (default) = all lanes share the constructor seed's stream.
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  power::TechnologyParams tech_;
  power::DesignParams design_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> lane_noise_seeds_;
  double jitter_s_ = 0.0;
  double cap_f_;
};

}  // namespace efficsense::blocks
