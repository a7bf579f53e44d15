// Ablation: the s of the s-SRBM sensing matrix (paper Sec. III uses s = 2,
// matching the two C_sample capacitors of Fig. 5). More ones per column
// mean more charge-sharing events — more averaging but also more decay and
// more sampling-capacitor hardware.

#include <iostream>

#include "ablation_common.hpp"
#include "power/area.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::bench;

int main() {
  efficsense::obs::BenchRun obs_run("bench_ablation_sparsity");
  const power::TechnologyParams tech;
  const auto dataset = ablation_dataset();
  std::cout << "Ablation: s-SRBM sparsity (CS chain, M=96, " << dataset.size()
            << " segments)\n\n";

  TablePrinter t({"s", "mean SNR [dB]", "CS area [Cu]", "runtime [s]"});
  for (int s : {1, 2, 3, 4, 6}) {
    power::DesignParams design;
    design.cs_m = 96;
    design.lna_noise_vrms = 5e-6;
    design.cs_sparsity = s;

    auto chain = arch::build_cs_chain(tech, design, {});
    cs::ReconstructorConfig rc;
    rc.residual_tol = 0.02;
    const auto recon = arch::make_matched_reconstructor(design, {}, rc);
    const auto score = score_cs_pipeline(*chain, recon, design, dataset);
    const auto area = power::capacitor_area(tech, design);
    t.add_row({format_number(s), format_number(score.snr_db),
               format_number(area.cs_encoder), format_number(score.seconds)});
  }
  t.print(std::cout);

  std::cout << "\nReading: SNR falls with s because every extra one per "
               "column multiplies the number of\ncharge-sharing events per "
               "hold capacitor and thus the geometric decay b^k. Small s\n"
               "is only viable because EEG is band-limited; general sparse "
               "recovery guarantees need\ns >= 2 for the expander "
               "structure, which is why the paper (and Fig. 5's two\n"
               "C_sample capacitors) use s = 2 — the decay-vs-redundancy "
               "sweet spot.\n";
  return 0;
}
