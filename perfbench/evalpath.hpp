#pragma once
// Traced recompositions of the library's evaluation entry points. Each one
// performs exactly the calls its library twin makes, in the same order and
// with the same arithmetic, but from the benchmark's code so that every
// call into a layer can be wrapped in a span:
//
//   Evaluator::evaluate       -> ArchRegistry::resolve, build_model /
//                                make_decoder, arch::run_chain,
//                                Decoder::decode, score_epochs
//   Evaluator::evaluate_lanes -> build_batch_model, run_chain_batch,
//                                decode_lanes, score_epochs_lanes
//   core::monte_carlo         -> lane groups over a pool, each through the
//                                traced evaluate_lanes
//
// Results are bit-identical to the library's (the traced run checks that).

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "classify/detector.hpp"
#include "core/evaluator.hpp"
#include "core/monte_carlo.hpp"
#include "eeg/dataset.hpp"
#include "sim/model.hpp"

namespace perfbench {

namespace es = efficsense;

/// Layer tallies that are not spans: per-block busy time summed from
/// Model::run_stats() after each point, and detector epochs scored.
class LayerTally {
 public:
  void add_blocks(const es::sim::RunStats& stats);
  std::map<std::string, double> block_busy_s() const;
  std::atomic<std::uint64_t> epochs{0};

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> busy_s_;
};

/// What a traced evaluation needs besides the design point.
struct EvalEnv {
  const es::core::Evaluator* evaluator = nullptr;
  const es::eeg::Dataset* dataset = nullptr;
  const es::classify::EpilepsyDetector* detector = nullptr;
  LayerTally* tally = nullptr;
  es::ThreadPool* pool = nullptr;  ///< the evaluator's decode fan-out pool
};

/// Span name of a point's decode: "cs.decode.<solver id>" for CS designs,
/// "cs.decode.none" for the pass-through chain.
std::string decode_span_name(const es::core::Evaluator& evaluator,
                             const es::power::DesignParams& design);

es::core::EvalMetrics traced_evaluate(const EvalEnv& env,
                                      const es::power::DesignParams& design,
                                      std::uint64_t id);

/// Empty when the architecture has no batched path (as evaluate_lanes).
std::vector<es::core::EvalMetrics> traced_evaluate_lanes(
    const EvalEnv& env, const es::power::DesignParams& design,
    const std::vector<es::arch::ChainSeeds>& lane_seeds,
    es::ThreadPool* pool, std::uint64_t id);

/// core::monte_carlo with options.threads and options.lanes set explicitly.
es::core::MonteCarloResult traced_monte_carlo(
    const EvalEnv& env, const es::power::DesignParams& design,
    const es::core::MonteCarloOptions& options, std::uint64_t id);

}  // namespace perfbench
