#pragma once
// Monte-Carlo mismatch analysis: a design point's quality metrics depend on
// the random capacitor mismatch drawn at fabrication (SAR DAC array, CS
// capacitor banks). Sweeping the mismatch seed gives the metric
// distribution across fabricated instances and the *yield* against the
// quality constraint — the question silicon designers actually ask of a
// pathfinding result before committing to it.

#include <cstdint>
#include <functional>

#include "core/evaluator.hpp"

namespace efficsense::core {

struct MonteCarloOptions {
  std::size_t instances = 16;       ///< fabricated instances to simulate
  std::uint64_t seed = 0xFAB;       ///< base of the per-instance seeds
  double min_accuracy = 0.98;       ///< yield constraint (paper: 98 %)
  bool vary_noise_streams = false;  ///< also re-draw the transient noise
  /// Worker threads for the instance fan-out: 1 = serial, 0 = resolve from
  /// EFFICSENSE_THREADS (which itself defaults to hardware concurrency).
  /// Instances carry independent seed streams, so results are identical to
  /// the serial order regardless of thread count.
  std::size_t threads = 0;
  /// SoA lane width K of the batched engine: instances are evaluated in
  /// groups of K through Evaluator::evaluate_lanes, each lane bit-identical
  /// at any K. 1 = one instance per group; 0 = resolve from
  /// EFFICSENSE_LANES (default 8). Architectures without a batched model
  /// (or with signal-dependent power) run each group as one-lane groups
  /// inside evaluate_lanes.
  std::size_t lanes = 0;
};

struct MetricStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct MonteCarloResult {
  std::vector<EvalMetrics> instances;
  MetricStats snr_db;
  MetricStats accuracy;
  /// Fraction of instances meeting the accuracy constraint.
  double yield = 0.0;
};

/// Evaluate `design` across `options.instances` mismatch draws. The
/// evaluator's dataset/detector are reused; only the fabrication seed (and
/// optionally the noise seed) changes per instance.
MonteCarloResult monte_carlo(const Evaluator& evaluator,
                             const power::DesignParams& design,
                             const MonteCarloOptions& options = {},
                             const std::function<void(std::size_t, std::size_t)>&
                                 progress = {});

/// Summary statistics of a sample.
MetricStats compute_stats(const std::vector<double>& samples);

}  // namespace efficsense::core
