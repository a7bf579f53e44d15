#include "blocks/digital_filter.hpp"

namespace efficsense::blocks {

DigitalFilterBlock::DigitalFilterBlock(std::string name,
                                       const power::TechnologyParams& tech,
                                       const power::DesignParams& design,
                                       dsp::BiquadCascade cascade,
                                       double gates_per_sample)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      cascade_(std::move(cascade)),
      gates_per_sample_(gates_per_sample) {
  params().set("gates_per_sample", gates_per_sample);
}

std::vector<sim::Waveform> DigitalFilterBlock::process(
    const std::vector<sim::Waveform>& in) {
  sim::Waveform out = in.at(0);
  cascade_.reset();
  out.samples = cascade_.process(out.samples);
  return {std::move(out)};
}

void DigitalFilterBlock::reset() {
  Block::reset();
  cascade_.reset();
}

double DigitalFilterBlock::power_watts() const {
  // alpha * gates * C_logic * Vdd^2 * f_sample with alpha = 0.4 (as for the
  // SAR logic model).
  return 0.4 * gates_per_sample_ *
         static_cast<double>(cascade_.sections().size()) * tech_.c_logic_f *
         design_.vdd * design_.vdd * design_.adc_rate_hz();
}

}  // namespace efficsense::blocks
