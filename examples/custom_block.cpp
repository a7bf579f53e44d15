// EffiCSense is an *open* framework (paper Sec. II): new circuit ideas are
// added as blocks carrying both a functional model and a power model, then
// evaluated at system level. This example adds a chopper-stabilized LNA —
// a circuit with a better noise-efficiency factor (NEF ~ 1.4 vs 2.0) at the
// cost of extra switching power — and shows its system-level impact without
// touching any framework code.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "arch/chain.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sar_adc.hpp"
#include "blocks/sources.hpp"
#include "blocks/transmitter.hpp"
#include "dsp/biquad.hpp"
#include "dsp/metrics.hpp"
#include "power/models.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

using namespace efficsense;

namespace {

/// A chopper-stabilized LNA: same functional behaviour as the library LNA
/// (noise, gain, bandwidth, clipping) but with NEF = 1.4 and an extra
/// chopping-clock power term. Subclassing sim::Block is the whole
/// "library extension" story.
class ChopperLnaBlock final : public sim::Block {
 public:
  ChopperLnaBlock(std::string name, const power::TechnologyParams& tech,
                  const power::DesignParams& design, std::uint64_t seed)
      : sim::Block(std::move(name), 1, 1),
        tech_(tech),
        design_(design),
        seed_(seed) {
    chop_clock_hz_ = 16.0 * design_.bw_lna_hz();  // well above the band
    params().set("nef", kChopperNef);
    params().set("chop_clock_hz", chop_clock_hz_);
  }

  std::vector<sim::Waveform> process(const std::vector<sim::Waveform>& in) override {
    const sim::Waveform& x = in.at(0);
    const double sigma =
        design_.lna_noise_vrms * std::sqrt(x.fs / (2.0 * design_.bw_lna_hz()));
    Rng rng(derive_seed(seed_, run_++));
    auto lpf = dsp::butterworth_lowpass(2, design_.bw_lna_hz(), x.fs);
    const double clip = design_.v_fs / 2.0;
    sim::Waveform out;
    out.fs = x.fs;
    out.samples.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      double v = (x[i] + rng.gaussian(0.0, sigma)) * design_.lna_gain;
      v = lpf.process(v);
      out.samples[i] = std::clamp(v, -clip, clip);
    }
    return {std::move(out)};
  }
  void reset() override { run_ = 0; }

  double power_watts() const override {
    // Same three-branch bound as Table II, but with the chopper's NEF, plus
    // the chopping-switch dynamic power (4 switches toggling at f_chop).
    auto tech = tech_;
    tech.nef = kChopperNef;
    const double amp = power::lna_power(tech, design_);
    const double chopping = 4.0 * tech_.c_logic_f * design_.vdd * design_.vdd *
                            chop_clock_hz_;
    return amp + chopping;
  }

 private:
  static constexpr double kChopperNef = 1.4;
  power::TechnologyParams tech_;
  power::DesignParams design_;
  std::uint64_t seed_;
  std::uint64_t run_ = 0;
  double chop_clock_hz_ = 0.0;
};

/// Assemble a baseline chain but with the custom amplifier in front.
std::unique_ptr<sim::Model> build_chopper_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design) {
  auto model = std::make_unique<sim::Model>();
  const auto src = model->add(std::make_unique<blocks::WaveformSource>("source"));
  const auto lna = model->add(std::make_unique<ChopperLnaBlock>("lna", tech, design, 7));
  const auto sh = model->add(std::make_unique<blocks::SampleHoldBlock>("sh", tech, design, 8));
  const auto adc = model->add(std::make_unique<blocks::SarAdcBlock>("adc", tech, design, 9, 10));
  const auto tx = model->add(std::make_unique<blocks::TransmitterBlock>("tx", tech, design, 11));
  model->chain({src, lna, sh, adc, tx});
  return model;
}

}  // namespace

int main() {
  const power::TechnologyParams tech;
  std::cout << "Custom-block example: chopper LNA (NEF 1.4) vs standard LNA "
               "(NEF 2.0)\n\n";

  TablePrinter t({"noise floor [uV]", "SNDR std [dB]", "SNDR chop [dB]",
                  "P std", "P chop", "saving"});
  for (double uv : {1.0, 2.0, 4.0, 8.0}) {
    power::DesignParams design;
    design.lna_noise_vrms = uv * 1e-6;

    blocks::SineSource tone("tone", 8192.0, 8.0, 50.0,
                            0.85 * (design.v_fs / 2.0) / design.lna_gain);
    const auto input = tone.process({}).front();

    auto standard = arch::build_baseline_chain(tech, design, {});
    const auto out_std = arch::run_chain(*standard, input);
    auto chopper = build_chopper_chain(tech, design);
    const auto out_chop = arch::run_chain(*chopper, input);

    const double p_std = standard->power_report().total_watts();
    const double p_chop = chopper->power_report().total_watts();
    t.add_row({format_number(uv),
               format_number(dsp::analyze_tone(out_std.samples, out_std.fs).sndr_db),
               format_number(dsp::analyze_tone(out_chop.samples, out_chop.fs).sndr_db),
               format_power(p_std), format_power(p_chop),
               format_number(p_std / p_chop)});
  }
  t.print(std::cout);

  std::cout << "\nThe chopper amplifier's (NEF/v_n)^2 noise branch is "
               "(2.0/1.4)^2 ~ 2x cheaper, so the\nsystem saving is largest "
               "exactly where Fig. 4 shows the LNA dominating (tight noise\n"
               "floors) and vanishes once the transmitter floor takes over "
               "— a system-level insight\nobtained by writing one new "
               "block.\n";
  return 0;
}
