#pragma once
// Shared scaffolding for the ablation benches: a small EEG dataset and a
// helper that streams it through a CS chain and scores the mean
// reconstruction SNR against the ideally sampled clean signal.

#include <chrono>
#include <vector>

#include "arch/chain.hpp"
#include "dsp/metrics.hpp"
#include "dsp/resample.hpp"
#include "eeg/dataset.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"

namespace efficsense::bench {

inline eeg::Dataset ablation_dataset() {
  const auto n = static_cast<std::size_t>(env_int("EFFICSENSE_SEGMENTS", 8));
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  return eeg::make_dataset(gen, n / 2, n - n / 2, /*seed=*/0xAB1A);
}

struct AblationScore {
  double snr_db = 0.0;
  double seconds = 0.0;
};

/// Mean reconstruction SNR of `chain` + `recon` over the dataset.
inline AblationScore score_cs_pipeline(sim::Model& chain,
                                       const cs::Reconstructor& recon,
                                       const power::DesignParams& design,
                                       const eeg::Dataset& dataset) {
  EFFICSENSE_SPAN("ablation/variant");
  const auto start = std::chrono::steady_clock::now();
  double snr_sum = 0.0;
  for (const auto& segment : dataset.segments) {
    const auto out = arch::run_chain(chain, segment.waveform);
    const auto rec = recon.reconstruct_stream(out.samples);
    const auto times = dsp::uniform_times(rec.size(), design.f_sample_hz());
    const auto ref = dsp::sample_at_times(segment.waveform.samples,
                                          segment.waveform.fs, times);
    snr_sum += dsp::snr_vs_reference_db(ref, rec);
  }
  const auto stop = std::chrono::steady_clock::now();
  AblationScore s;
  s.snr_db = snr_sum / static_cast<double>(dataset.size());
  s.seconds = std::chrono::duration<double>(stop - start).count();
  return s;
}

}  // namespace efficsense::bench
