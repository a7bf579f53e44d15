// Front-end style comparison — the exploration the paper names explicitly
// ("allowing the designer to more quickly explore different kinds of
// front-ends (e.g. digital vs analog or active vs passive compressive
// sensing)"). Runs all four architectures on the same EEG dataset with the
// same detector and reports quality, power and area side by side.

#include "obs/obs.hpp"

#include <iostream>

#include "core/evaluator.hpp"
#include "eeg/dataset.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::arch;

int main() {
  efficsense::obs::BenchRun obs_run("bench_frontend_comparison");
  const power::TechnologyParams tech;
  const auto n = static_cast<std::size_t>(env_int("EFFICSENSE_SEGMENTS", 16));
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto dataset = eeg::make_dataset(gen, n / 2, n - n / 2,
                                         derive_seed(2022, 0xEA1));
  std::cout << "Front-end comparison on " << dataset.size()
            << " EEG segments (train once, evaluate four architectures)\n\n";

  classify::DetectorConfig det_cfg;
  const auto detector = classify::EpilepsyDetector::train(
      eeg::make_dataset(gen, 30, 30, derive_seed(2022, 0xDE7)), det_cfg);

  EvalOptions options;
  options.recon.residual_tol = 0.02;
  const Evaluator evaluator(tech, &dataset, &detector, options);

  struct Arch {
    const char* name;
    power::DesignParams design;
  };
  std::vector<Arch> archs;
  {
    power::DesignParams base;
    base.adc_bits = 8;
    base.lna_noise_vrms = 6e-6;
    archs.push_back({"classical (Fig. 1a)", base});

    power::DesignParams passive = base;
    passive.cs_m = 75;
    passive.cs_c_hold_f = 1e-12;
    archs.push_back({"passive charge-sharing CS (Fig. 1b/5)", passive});

    power::DesignParams active = passive;
    active.cs_style = power::CsStyle::ActiveIntegrator;
    archs.push_back({"active integrator CS [2][10]", active});

    power::DesignParams digital = passive;
    digital.cs_style = power::CsStyle::DigitalMac;
    archs.push_back({"digital MAC CS [2][12]", digital});
  }

  TablePrinter t({"front-end", "SNR [dB]", "acc [%]", "power", "P_lna",
                  "P_enc", "P_adc", "P_tx", "area [Cu]"});
  for (const auto& arch : archs) {
    const auto m = evaluator.evaluate(arch.design);
    t.add_row({arch.name, format_number(m.snr_db),
               format_number(100.0 * m.accuracy), format_power(m.power_w),
               format_power(m.power_breakdown.watts_of(kLnaBlock)),
               format_power(m.power_breakdown.watts_of(kCsEncoderBlock)),
               format_power(m.power_breakdown.watts_of(kAdcBlock) +
                            m.power_breakdown.watts_of(kSampleHoldBlock)),
               format_power(m.power_breakdown.watts_of(kTxBlock)),
               format_number(m.area_unit_caps)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading (at the paper's 256 Hz EEG bandwidth): all three CS "
         "styles share the transmit\nsaving; the passive encoder is the "
         "cheapest (no OTA bias, no wide digital words) as the\npaper "
         "claims vs the active style, while the digital MAC pays wider "
         "words and a\nfull-rate converter but reconstructs best (no "
         "charge-sharing decay). The per-block\nsplit shows exactly where "
         "each style spends its energy; see "
         "bench_frontend_scaling\nfor how the ranking shifts with signal "
         "bandwidth.\n";
  return 0;
}
