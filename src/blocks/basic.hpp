#pragma once
// Small mathematical blocks (gain, adder, clip, white-noise adder) used to
// compose custom front-ends in examples and tests — the "Simulink toolbox"
// primitives the paper's Fig. 3 is drawn from.

#include "sim/block.hpp"
#include "util/rng.hpp"

namespace efficsense::blocks {

class GainBlock final : public sim::Block {
 public:
  GainBlock(std::string name, double gain);
  std::vector<sim::Waveform> process(const std::vector<sim::Waveform>& in) override;

 private:
  double gain_;
};

/// Element-wise sum of two equal-rate waveforms (shorter input truncates).
class AdderBlock final : public sim::Block {
 public:
  explicit AdderBlock(std::string name);
  std::vector<sim::Waveform> process(const std::vector<sim::Waveform>& in) override;
};

/// Hard clipping to [lo, hi].
class ClipBlock final : public sim::Block {
 public:
  ClipBlock(std::string name, double lo, double hi);
  std::vector<sim::Waveform> process(const std::vector<sim::Waveform>& in) override;

 private:
  double lo_, hi_;
};

/// Adds white Gaussian noise with per-sample sigma `sigma`. The stream is
/// deterministic per (seed, run index); reset() rewinds to the first run.
class NoiseAdderBlock final : public sim::Block {
 public:
  NoiseAdderBlock(std::string name, double sigma, std::uint64_t seed);
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  /// Per-lane noise seeds for batched runs; empty (default) = all lanes
  /// share the constructor seed's stream.
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  double sigma_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> lane_noise_seeds_;
};

/// Static memoryless third-order nonlinearity y = x - k3 * x^3 (odd-order
/// compression, the dominant LNA distortion mechanism).
class CubicNonlinearityBlock final : public sim::Block {
 public:
  CubicNonlinearityBlock(std::string name, double k3);
  std::vector<sim::Waveform> process(const std::vector<sim::Waveform>& in) override;

 private:
  double k3_;
};

}  // namespace efficsense::blocks
