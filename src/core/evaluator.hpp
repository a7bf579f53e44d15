#pragma once
// The evaluator binds everything together: for one design point it resolves
// the architecture in the ArchRegistry, builds its chain, streams the whole
// EEG dataset through it, decodes (CS reconstruction or pass-through), and
// scores both goal functions of the paper — reconstruction SNR (Fig. 7a)
// and seizure-detection accuracy (Fig. 7b) — next to the analytic power and
// capacitor area. Architectures with signal-dependent power (LC-ADC) are
// scored on the per-segment power reports averaged over the dataset.

#include <cstdint>
#include <string>

#include "arch/architecture.hpp"
#include "arch/chain.hpp"
#include "classify/detector.hpp"
#include "eeg/dataset.hpp"
#include "power/area.hpp"
#include "sim/report.hpp"

namespace efficsense {
class ThreadPool;
}

namespace efficsense::core {

struct EvalOptions {
  cs::ReconstructorConfig recon;
  arch::ChainSeeds seeds;
  /// Evaluate at most this many segments (0 = all).
  std::size_t max_segments = 0;
  /// Architecture id ("" or "auto" selects by design, the legacy
  /// uses_cs()/cs_style dispatch; anything else must be registered).
  std::string architecture;
  /// Digest of the ScenarioSpec driving this evaluator (0 = none). Folded
  /// into config_digest(), so run journals refuse a foreign scenario.
  std::uint64_t scenario_digest = 0;
};

struct EvalMetrics {
  double snr_db = 0.0;       ///< mean reconstruction SNR over the dataset
  double accuracy = 0.0;     ///< seizure detection accuracy
  double power_w = 0.0;      ///< total analytic power
  double area_unit_caps = 0.0;
  sim::PowerReport power_breakdown;
  sim::AreaReport area_breakdown;
  std::size_t segments_evaluated = 0;
};

class Evaluator {
 public:
  /// The detector must have been trained at design.f_sample_hz-compatible
  /// rates (it is rate-aware, so a single detector serves all points).
  Evaluator(power::TechnologyParams tech, const eeg::Dataset* dataset,
            const classify::EpilepsyDetector* detector, EvalOptions options = {});

  /// Score one design point.
  EvalMetrics evaluate(const power::DesignParams& design) const;

  /// Score K fabricated instances of one design point in lockstep through
  /// the architecture's batched model (SoA Monte-Carlo engine): one
  /// run_batch per segment drives all lanes, decode runs as a multi-RHS
  /// solve per window, and out[k] is bit-identical to a scalar evaluate()
  /// with seeds = lane_seeds[k]. With a pool (set_pool) the segments fan
  /// out, each on a batch chain seeked to its run index; the per-segment
  /// results are reduced in segment order, so the output does not depend
  /// on the pool. All lanes must share the phi seed. Returns
  /// an empty vector when the architecture has no batched path (or has
  /// signal-dependent power) — callers then fall back to per-instance
  /// scalar evaluation, so every registered architecture runs at any lane
  /// width.
  std::vector<EvalMetrics> evaluate_lanes(
      const power::DesignParams& design,
      const std::vector<arch::ChainSeeds>& lane_seeds) const;

  /// Process one segment through an existing chain; returns the received
  /// signal at f_sample scale (input-referred: LNA gain divided out) plus
  /// its reconstruction SNR versus the ideally sampled clean segment.
  struct SegmentOutcome {
    std::vector<double> received;  ///< input-referred received signal
    double fs = 0.0;
    double snr_db = 0.0;
  };
  SegmentOutcome process_segment(sim::Model& chain,
                                 const arch::Decoder& decoder,
                                 const power::DesignParams& design,
                                 const sim::Waveform& clean) const;

  const power::TechnologyParams& tech() const { return tech_; }
  const EvalOptions& options() const { return options_; }

  /// Stable 64-bit digest of everything that determines evaluate()'s output
  /// besides the design point itself: technology constants, reconstruction
  /// config, chain seeds, the segment cap, the architecture selection (id +
  /// scenario digest) and the dataset's identity (per-segment seeds,
  /// labels, lengths and boundary samples). The run journal stores it so a
  /// resume against a different configuration is refused instead of
  /// silently mixing results.
  std::uint64_t config_digest() const;
  /// Replace the chain seeds (Monte-Carlo fabrication sweeps).
  void set_seeds(const arch::ChainSeeds& seeds) { options_.seeds = seeds; }
  /// Optional pool (non-owning). evaluate_lanes() fans its segments out
  /// over it; both evaluate() and evaluate_lanes() fan each segment's
  /// per-window reconstructions out over it too. Results are identical to
  /// the serial path.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  /// The reconstruction config for one design point: the evaluator-level
  /// config, with the solver overridden when the point carries a swept
  /// "solver" axis (design.cs_solver_code >= 0).
  cs::ReconstructorConfig point_recon(const power::DesignParams& design) const;

  power::TechnologyParams tech_;
  const eeg::Dataset* dataset_;
  const classify::EpilepsyDetector* detector_;
  EvalOptions options_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace efficsense::core
