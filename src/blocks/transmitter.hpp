#pragma once
// Transmitter: accounts for the dominant radio energy (E_bit per transmitted
// bit, Table II [4][12]) and optionally injects channel bit errors. The
// functional path re-derives the ADC code from the quantized voltage, flips
// bits with the configured BER, and re-emits the corresponding voltage, so a
// lossy link degrades the downstream metrics realistically.

#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

class TransmitterBlock final : public sim::Block {
 public:
  TransmitterBlock(std::string name, const power::TechnologyParams& tech,
                   const power::DesignParams& design, std::uint64_t seed,
                   double bit_error_rate = 0.0);

  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;

  /// Bits transmitted during the last run.
  std::uint64_t last_bits_sent() const { return bits_sent_; }
  /// Average bit rate implied by the design [bit/s].
  double bit_rate() const { return design_.bit_rate(); }

  /// Per-lane channel seeds for batched runs; empty (default) = all lanes
  /// share the constructor seed's stream.
  void set_lane_noise_seeds(std::vector<std::uint64_t> seeds) {
    lane_noise_seeds_ = std::move(seeds);
  }

 private:
  power::TechnologyParams tech_;
  power::DesignParams design_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> lane_noise_seeds_;
  double ber_;
  std::uint64_t bits_sent_ = 0;
};

}  // namespace efficsense::blocks
