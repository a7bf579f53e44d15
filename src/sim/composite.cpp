#include "sim/composite.hpp"

#include "util/error.hpp"

namespace efficsense::sim {

CompositeBlock::CompositeBlock(std::string name, std::unique_ptr<Model> inner,
                               std::string input_block)
    : Block(std::move(name), 1, 1),
      inner_(std::move(inner)),
      input_block_(std::move(input_block)) {
  EFF_REQUIRE(inner_ != nullptr, "composite needs an inner model");
  Block& entry = inner_->block(input_block_);  // throws if absent
  EFF_REQUIRE(entry.num_inputs() == 0 && entry.num_outputs() == 1,
              "composite entry block must be a source (0 in / 1 out)");
}

std::vector<Waveform> CompositeBlock::process(
    const std::vector<Waveform>& inputs) {
  EFF_REQUIRE(inputs.size() == 1, "composite expects one input");
  Block& entry = inner_->block(input_block_);
  auto* settable = dynamic_cast<WaveformSettable*>(&entry);
  EFF_REQUIRE(settable != nullptr,
              "composite entry block must implement WaveformSettable");
  settable->set_waveform(inputs[0]);
  auto outputs = inner_->run();
  EFF_REQUIRE(outputs.size() == 1,
              "composite inner model must have exactly one free output");
  return {std::move(outputs.front())};
}

void CompositeBlock::reset() {
  Block::reset();
  inner_->reset();
}

void CompositeBlock::seek_run(std::uint64_t r) {
  Block::seek_run(r);
  inner_->seek_run(r);
}

double CompositeBlock::power_watts() const {
  return inner_->power_report().total_watts();
}

double CompositeBlock::area_unit_caps() const {
  return inner_->area_report().total_unit_caps();
}

}  // namespace efficsense::sim
