#pragma once
// Behavioural SAR ADC: per-sample successive approximation against a binary
// capacitive DAC with per-capacitor mismatch (INL/DNL) and per-decision
// comparator noise. The receiver reconstructs with nominal weights, so
// mismatch shows up as static nonlinearity exactly as in silicon.
// Power model: comparator + SAR logic + DAC switching (+ optionally the
// input sampling network when the converter digitizes CS measurements
// directly), all from Table II.

#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

class SarAdcBlock final : public sim::Block {
 public:
  /// `mismatch_seed` freezes the DAC capacitor mismatch for the lifetime of
  /// the block (one fabricated instance); `noise_seed` drives the comparator
  /// noise stream per run. Set `include_sampling_network` when no separate
  /// S&H block precedes the converter (CS chain).
  SarAdcBlock(std::string name, const power::TechnologyParams& tech,
              const power::DesignParams& design, std::uint64_t mismatch_seed,
              std::uint64_t noise_seed, bool include_sampling_network = false);

  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;
  double area_unit_caps() const override;

  int bits() const { return design_.adc_bits; }
  double lsb() const;

  /// The actual (mismatched) normalized bit weights, for tests.
  const std::vector<double>& actual_weights() const { return weights_; }

  /// Fabricate one DAC instance per lane for batched runs: lane k's weights
  /// are drawn exactly as a scalar block constructed with seeds[k] would
  /// draw them. Power/area stay design-deterministic and are unaffected.
  void set_lane_mismatch_seeds(const std::vector<std::uint64_t>& seeds);
  /// Per-lane comparator-noise seeds; empty (default) = all lanes share the
  /// constructor noise seed's stream (one bulk draw serves every lane).
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  std::vector<double> draw_weights(std::uint64_t mismatch_seed) const;

  power::TechnologyParams tech_;
  power::DesignParams design_;
  std::uint64_t noise_seed_;
  bool include_sampling_network_;
  std::vector<double> weights_;  // normalized actual bit weights, MSB first
  std::vector<std::vector<double>> lane_weights_;  // per-lane instances
  std::vector<std::uint64_t> lane_noise_seeds_;
};

}  // namespace efficsense::blocks
