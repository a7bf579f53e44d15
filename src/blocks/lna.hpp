#pragma once
// The low-noise amplifier block of Fig. 3: input-referred white noise, gain,
// bandwidth limitation (2nd-order Butterworth low-pass at BW_LNA), odd-order
// compression and output clipping. Its power model is the three-branch bound
// of Table II (bandwidth-, slewing- or noise-limited supply current).

#include "power/models.hpp"
#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

class LnaBlock final : public sim::Block {
 public:
  /// `hd3_db` sets the third-harmonic distortion at full output swing
  /// (V_FS/2); the cubic coefficient is derived from it. `seed` fixes the
  /// noise stream; each run() consumes the next sub-stream so repeated
  /// dataset evaluations see independent but reproducible noise.
  LnaBlock(std::string name, const power::TechnologyParams& tech,
           const power::DesignParams& design, std::uint64_t seed,
           double hd3_db = -60.0);

  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;
  power::LnaLimit limiting_factor() const;

  double gain() const { return design_.lna_gain; }

  /// Per-lane noise seeds for batched runs with independent noise streams
  /// (vary_noise_streams): lane k draws from seeds[k] instead of the shared
  /// constructor seed. Empty (default) = all lanes share one stream.
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  power::TechnologyParams tech_;
  power::DesignParams design_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> lane_noise_seeds_;
  double k3_;          // output-referred cubic coefficient
  double clip_level_;  // output clips at +-clip_level_
};

}  // namespace efficsense::blocks
