#pragma once
// Active CS encoder: an array of M OTA-based switched-capacitor integrators
// [2][10] — the architecture the paper's passive charge-sharing front-end
// (Fig. 5) replaces. The OTA's virtual ground makes the accumulation exact
// (no Eq.-1 decay: every sample contributes with weight C_s / C_int), at
// the cost of the integrators' static bias power.
//
// Non-idealities: per-capacitor mismatch, kT/C sampling noise, and the
// OTA's input-referred noise per charge transfer.

#include <cstdint>

#include "cs/effective.hpp"
#include "cs/srbm.hpp"
#include "power/tech.hpp"
#include "sim/block.hpp"

namespace efficsense::blocks {

struct ActiveCsEncoderOptions {
  bool enable_mismatch = true;
  bool enable_noise = true;
  /// OTA input-referred noise per transfer [Vrms] (thermal, amplifier).
  double ota_noise_vrms = 50e-6;
};

class ActiveCsEncoderBlock final : public sim::Block {
 public:
  ActiveCsEncoderBlock(std::string name, const power::TechnologyParams& tech,
                       const power::DesignParams& design,
                       cs::SparseBinaryMatrix phi, std::uint64_t mismatch_seed,
                       std::uint64_t noise_seed,
                       ActiveCsEncoderOptions options = {});

  /// Every lane shares this instance's capacitors and noise stream: a
  /// uniform input gives a uniform bank, a per-lane input replays the run's
  /// stream on each row (as K instances with one seed would draw it).
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

  double power_watts() const override;
  double area_unit_caps() const override;

  const cs::SparseBinaryMatrix& sensing_matrix() const { return phi_; }
  /// Nominal per-sample weight (a = C_s / C_int) with no decay (b = 1).
  cs::ChargeSharingGains nominal_gains() const;

 private:
  power::TechnologyParams tech_;
  power::DesignParams design_;
  cs::SparseBinaryMatrix phi_;
  ActiveCsEncoderOptions options_;
  std::uint64_t noise_seed_;
  std::vector<double> c_int_f_;     // actual integration caps [F]
  std::vector<double> c_sample_f_;  // actual sampling caps [F]
};

}  // namespace efficsense::blocks
