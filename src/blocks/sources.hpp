#pragma once
// Source blocks: where waveforms enter a model. WaveformSource injects
// recorded / synthetic sensor data (the paper's Step 4); SineSource drives
// the single-tone characterisation sweeps (Fig. 4).

#include "sim/block.hpp"

namespace efficsense::blocks {

/// Emits a waveform provided from outside the model. Re-settable between
/// runs, so one model instance can be evaluated over a whole dataset.
class WaveformSource final : public sim::Block, public sim::WaveformSettable {
 public:
  explicit WaveformSource(std::string name);
  WaveformSource(std::string name, sim::Waveform initial);

  void set_waveform(sim::Waveform w) override;
  /// Emits the waveform as one uniform (broadcast) bank.
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

 private:
  sim::Waveform waveform_;
};

/// Pure sine generator: amplitude * sin(2 pi f t + phase) + offset.
class SineSource final : public sim::Block {
 public:
  SineSource(std::string name, double fs, double duration_s, double freq_hz,
             double amplitude, double offset = 0.0, double phase_rad = 0.0);

  /// Emits the tone as one uniform (broadcast) bank.
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override;

 private:
  double fs_;
  double duration_s_;
  double freq_hz_;
  double amplitude_;
  double offset_;
  double phase_rad_;
};

}  // namespace efficsense::blocks
