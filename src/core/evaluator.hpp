#pragma once
// The evaluator binds everything together: for one design point it resolves
// the architecture in the ArchRegistry, builds its chain, streams the whole
// EEG dataset through it, decodes (CS reconstruction or pass-through), and
// scores both goal functions of the paper — reconstruction SNR (Fig. 7a)
// and seizure-detection accuracy (Fig. 7b) — next to the analytic power and
// capacitor area. One schedule serves one instance or a Monte-Carlo lane
// group. Architectures with signal-dependent power (LC-ADC) are scored on
// the per-segment power reports averaged over the dataset. An evaluation
// fans out over the pool it runs on (ThreadPool::current()); off a pool it
// runs serially, with the same bits.

#include <cstdint>
#include <string>

#include "arch/architecture.hpp"
#include "arch/chain.hpp"
#include "classify/detector.hpp"
#include "eeg/dataset.hpp"
#include "power/area.hpp"
#include "sim/report.hpp"

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

  /// Score one design point: lane 0 of a one-lane evaluate_lanes() with
  /// the evaluator's seeds.
  EvalMetrics evaluate(const power::DesignParams& design) const;

  /// Score K fabricated instances of one design point (K =
  /// lane_seeds.size() >= 1); out[k] is the score of the instance built
  /// with seeds = lane_seeds[k], and its bits do not depend on K. A K >= 2
  /// group runs in lockstep through the architecture's batched model (SoA
  /// Monte-Carlo engine): one run_batch per segment drives all lanes, and
  /// decode runs as a multi-RHS solve per window. An architecture without
  /// a batched model, or with signal-dependent power (its report is read
  /// per instance right after each segment), runs K one-lane groups on
  /// build_model chains instead. Called on a pool's thread (a worker, or
  /// a caller inside its parallel_for: ThreadPool::current()), the (group,
  /// segment) tasks and each segment's per-window decode fan out over that
  /// pool, each segment on a chain seeked to its run index; results are
  /// reduced in segment order, so the output does not depend on the pool.
  /// All lanes must share the phi seed.
  std::vector<EvalMetrics> evaluate_lanes(
      const power::DesignParams& design,
      const std::vector<arch::ChainSeeds>& lane_seeds) const;

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

 private:
  /// The reconstruction config for one design point: the evaluator-level
  /// config, with the solver overridden when the point carries a swept
  /// "solver" axis (design.cs_solver_code >= 0).
  cs::ReconstructorConfig point_recon(const power::DesignParams& design) const;

  power::TechnologyParams tech_;
  const eeg::Dataset* dataset_;
  const classify::EpilepsyDetector* detector_;
  EvalOptions options_;
};

}  // namespace efficsense::core
