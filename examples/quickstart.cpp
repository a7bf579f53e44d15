// Quickstart: build the classical acquisition chain of Fig. 1a, drive it
// with a sine, and read out both sides of the EffiCSense coin — signal
// quality (SNDR/ENOB) and the analytic power/area estimates.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <iostream>

#include "arch/chain.hpp"
#include "blocks/lna.hpp"
#include "blocks/sources.hpp"
#include "dsp/metrics.hpp"
#include "power/models.hpp"
#include "util/csv.hpp"

using namespace efficsense;

int main() {
  // Technology and design parameters: the paper's Table III defaults.
  const power::TechnologyParams tech;
  power::DesignParams design;
  design.adc_bits = 8;
  design.lna_noise_vrms = 3e-6;  // 3 uVrms input-referred noise floor

  std::cout << tech.describe() << "\n" << design.describe() << "\n";

  // Assemble the chain (source -> LNA -> S&H -> SAR ADC -> TX).
  auto chain = arch::build_baseline_chain(tech, design, arch::ChainSeeds{});

  // A 50 Hz tone at 80 % of the input range the LNA maps to full scale.
  const double amplitude = 0.8 * (design.v_fs / 2.0) / design.lna_gain;
  blocks::SineSource tone("tone", /*fs=*/8192.0, /*duration_s=*/4.0,
                          /*freq_hz=*/50.0, amplitude);
  const auto input = tone.process({}).front();

  const auto output = arch::run_chain(*chain, input);

  // Signal quality at the transmitter output.
  const auto analysis = dsp::analyze_tone(output.samples, output.fs);
  std::cout << "Tone analysis of the received signal:\n"
            << "  fundamental : " << format_number(analysis.fundamental_hz)
            << " Hz\n"
            << "  SNDR        : " << format_number(analysis.sndr_db) << " dB\n"
            << "  ENOB        : " << format_number(analysis.enob) << " bit\n"
            << "  THD         : " << format_number(analysis.thd_db) << " dB\n\n";

  // Power and area: the other half of every EffiCSense block.
  std::cout << "Analytic power estimate (Table II models):\n"
            << chain->power_report().to_string() << "\n";
  const auto area = chain->area_report();
  std::cout << "Capacitor area: " << format_number(area.total_unit_caps())
            << " x C_u,min\n";

  const auto limit = power::lna_limit(tech, design);
  std::cout << "LNA regime: "
            << (limit == power::LnaLimit::Noise
                    ? "noise-limited"
                    : (limit == power::LnaLimit::Bandwidth ? "bandwidth-limited"
                                                           : "slewing-limited"))
            << "\n";
  return 0;
}
