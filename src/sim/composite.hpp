#pragma once
// Hierarchical subsystems: a CompositeBlock wraps an inner Model behind a
// single Block interface — the Simulink "subsystem" idea that makes the
// paper's plug-and-play library composable (e.g. package an entire
// front-end as one reusable block). Power and area aggregate over the
// inner blocks automatically.

#include <memory>

#include "sim/block.hpp"
#include "sim/model.hpp"

namespace efficsense::sim {

class CompositeBlock final : public Block {
 public:
  /// `inner` must contain a WaveformSource-like entry block named
  /// `input_block` (0 inputs, 1 output) whose waveform this composite sets,
  /// and exactly one unconnected output port overall (the subsystem
  /// output). Single-input single-output composites only.
  CompositeBlock(std::string name, std::unique_ptr<Model> inner,
                 std::string input_block);

  std::vector<Waveform> process(const std::vector<Waveform>& inputs) override;
  void reset() override;
  /// Forwards to the inner model, so its noise blocks follow the outer run.
  void seek_run(std::uint64_t r) override;

  double power_watts() const override;
  double area_unit_caps() const override;

  Model& inner() { return *inner_; }
  const Model& inner() const { return *inner_; }

 private:
  std::unique_ptr<Model> inner_;
  std::string input_block_;
};

}  // namespace efficsense::sim
