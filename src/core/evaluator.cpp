#include "core/evaluator.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>

#include "dsp/metrics.hpp"
#include "dsp/resample.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace efficsense::core {

namespace {

void append_bits(std::string& bytes, double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>((b >> shift) & 0xFF));
  }
}

void append_u64(std::string& bytes, std::uint64_t b) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>((b >> shift) & 0xFF));
  }
}

}  // namespace

Evaluator::Evaluator(power::TechnologyParams tech, const eeg::Dataset* dataset,
                     const classify::EpilepsyDetector* detector,
                     EvalOptions options)
    : tech_(tech),
      dataset_(dataset),
      detector_(detector),
      options_(std::move(options)) {
  EFF_REQUIRE(dataset_ != nullptr && !dataset_->segments.empty(),
              "evaluator needs a non-empty dataset");
  EFF_REQUIRE(detector_ != nullptr, "evaluator needs a trained detector");
  if (!options_.architecture.empty() && options_.architecture != "auto") {
    // Fail at construction, with the registered list, not at point 4990.
    arch::ArchRegistry::instance().get(options_.architecture);
  }
  // Same early-failure contract for the decode solver.
  cs::SolverRegistry::instance().get(options_.recon.solver_id());
}

cs::ReconstructorConfig Evaluator::point_recon(
    const power::DesignParams& design) const {
  cs::ReconstructorConfig rc = options_.recon;
  if (design.cs_solver_code >= 0) {
    rc.solver =
        cs::SolverRegistry::instance().id_of_code(design.cs_solver_code);
  }
  return rc;
}

std::uint64_t Evaluator::config_digest() const {
  std::string bytes = "eval-digest-v3;";
  // Technology constants.
  append_bits(bytes, tech_.c_logic_f);
  append_bits(bytes, tech_.gm_over_id);
  append_bits(bytes, tech_.cap_density_f_um2);
  append_bits(bytes, tech_.c_u_min_f);
  append_bits(bytes, tech_.i_leak_a);
  append_bits(bytes, tech_.e_bit_j);
  append_bits(bytes, tech_.v_thermal);
  append_bits(bytes, tech_.nef);
  append_bits(bytes, tech_.k_match_1f);
  append_bits(bytes, tech_.temperature_k);
  // Reconstruction configuration.
  const auto& rc = options_.recon;
  // Retired algorithm-enum byte: always the old default (0), so digests
  // keep their byte layout.
  bytes.push_back(0);
  bytes.push_back(static_cast<char>(rc.basis));
  append_u64(bytes, rc.sparsity);
  append_bits(bytes, rc.residual_tol);
  append_u64(bytes, rc.max_iters);
  append_u64(bytes, rc.basis_atoms);
  bytes.push_back(rc.compensate_decay ? 1 : 0);
  bytes.push_back(static_cast<char>(rc.omp_mode));
  // The resolved decode solver id: journals refuse results produced by a
  // run configured with a different solver.
  bytes += rc.solver_id();
  bytes.push_back('\n');
  // Chain seeds and segment cap.
  append_u64(bytes, options_.seeds.mismatch);
  append_u64(bytes, options_.seeds.noise);
  append_u64(bytes, options_.seeds.phi);
  append_u64(bytes, options_.max_segments);
  // Architecture selection ("auto" normalizes to the empty id) and the
  // scenario identity driving this evaluator.
  if (options_.architecture != "auto") bytes += options_.architecture;
  bytes.push_back('\n');
  append_u64(bytes, options_.scenario_digest);
  // Dataset identity: cheap but sensitive — per-segment seed, label,
  // sample rate, length and the raw bits of the boundary samples.
  append_u64(bytes, dataset_->segments.size());
  for (const auto& seg : dataset_->segments) {
    append_u64(bytes, seg.seed);
    bytes.push_back(seg.label == eeg::SegmentClass::Seizure ? 1 : 0);
    append_bits(bytes, seg.waveform.fs);
    append_u64(bytes, seg.waveform.samples.size());
    if (!seg.waveform.samples.empty()) {
      append_bits(bytes, seg.waveform.samples.front());
      append_bits(bytes, seg.waveform.samples.back());
    }
  }
  return fnv1a(bytes);
}

EvalMetrics Evaluator::evaluate(const power::DesignParams& design) const {
  return evaluate_lanes(design, {options_.seeds}).front();
}

namespace {

/// The chains of one lane group. A segment task takes an idle chain (or
/// builds one when all are busy) and gives it back when its bank has been
/// decoded, so at most one chain lives per executor running the group's
/// segments.
class ChainFreeList {
 public:
  using Build = std::function<std::unique_ptr<sim::Model>()>;
  explicit ChainFreeList(Build build) : build_(std::move(build)) {}

  /// An idle chain, or a freshly built one (nullptr when the architecture
  /// has no model for the group).
  std::unique_ptr<sim::Model> take() {
    {
      std::lock_guard lock(mutex_);
      if (!idle_.empty()) {
        auto chain = std::move(idle_.back());
        idle_.pop_back();
        return chain;
      }
    }
    auto chain = build_();
    if (chain != nullptr) obs::counter("eval/chain_builds").inc();
    return chain;
  }

  void give_back(std::unique_ptr<sim::Model> chain) {
    std::lock_guard lock(mutex_);
    idle_.push_back(std::move(chain));
  }

 private:
  Build build_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<sim::Model>> idle_;
};

/// Lanes that run in lockstep on one chain, with the reports and the
/// decoder they share.
struct LaneGroup {
  std::vector<arch::ChainSeeds> seeds;
  std::unique_ptr<ChainFreeList> chains;
  std::unique_ptr<arch::Decoder> decoder;
  sim::PowerReport power;  ///< pre-run analytic report (static power only)
  sim::AreaReport area;
};

/// One segment of one lane group, per lane.
struct SegmentResult {
  std::vector<double> snr_db;
  std::vector<classify::EpilepsyDetector::EpochScore> scores;
  sim::PowerReport power;  ///< read right after the run (live power only)
};

}  // namespace

std::vector<EvalMetrics> Evaluator::evaluate_lanes(
    const power::DesignParams& design,
    const std::vector<arch::ChainSeeds>& lane_seeds) const {
  EFF_REQUIRE(!lane_seeds.empty(), "evaluate_lanes needs at least one lane");
  EFFICSENSE_SPAN("eval/point");
  const auto eval_start = std::chrono::steady_clock::now();
  design.validate();

  const arch::Architecture& architecture =
      arch::ArchRegistry::instance().resolve(options_.architecture, design);
  const bool live_power = architecture.signal_dependent_power();
  const cs::ReconstructorConfig recon = point_recon(design);

  // A one-lane group runs on build_model(seeds), a wider one on the
  // batched model. Power and area are deterministic functions of (tech,
  // design), independent of the drawn mismatch, so one pre-run report
  // serves every lane of a group. Decoders built through the architecture
  // share reconstructors via the cross-point ReconstructorCache: they
  // depend only on the phi seed + CS config, never on the mismatch/noise
  // seeds, so one decoder serves every lane too.
  std::vector<LaneGroup> groups;
  const auto add_group = [&](std::vector<arch::ChainSeeds> seeds) {
    LaneGroup group;
    group.seeds = std::move(seeds);
    group.chains = std::make_unique<ChainFreeList>(
        [&architecture, &design, this, seeds = group.seeds] {
          return seeds.size() == 1
                     ? architecture.build_model(tech_, design, seeds.front())
                     : architecture.build_batch_model(tech_, design, seeds);
        });
    auto chain = group.chains->take();
    if (chain == nullptr) return false;
    if (!live_power) group.power = architecture.power_report(*chain);
    group.area = architecture.area_report(*chain);
    group.chains->give_back(std::move(chain));
    group.decoder =
        architecture.make_decoder(design, group.seeds.front(), recon);
    groups.push_back(std::move(group));
    return true;
  };
  // Signal-dependent power is read per instance after each segment, so
  // such architectures, like those without a batched model, run one-lane
  // groups.
  if (live_power || !add_group(lane_seeds)) {
    for (const arch::ChainSeeds& seeds : lane_seeds) add_group({seeds});
  }

  std::size_t limit = dataset_->segments.size();
  if (options_.max_segments > 0) {
    limit = std::min(limit, options_.max_segments);
  }

  // Segment i is fully determined by its run index (every noise block seeds
  // run i from derive_seed(seed, i)), so (group, segment) tasks fan out over
  // the pool this evaluation runs on, each on a chain of its group seeked to
  // run i. The per-window decode fans out over the same (reentrant) pool, so
  // a lone segment still uses every executor, and idle executors, whether
  // in this evaluation's last round or done with a sweep's other points,
  // join the segments and windows still open.
  ThreadPool* const pool = ThreadPool::current();
  std::vector<std::vector<SegmentResult>> results(
      groups.size(), std::vector<SegmentResult>(limit));
  const double f_sample = design.f_sample_hz();
  const double inv_gain = 1.0 / design.lna_gain;

  const auto run_segment = [&](std::size_t task) {
    const LaneGroup& group = groups[task / limit];
    const std::size_t i = task % limit;
    const std::size_t lanes = group.seeds.size();
    const auto& segment = dataset_->segments[i];
    SegmentResult& out = results[task / limit][i];
    // At LNA-output scale; rate f_sample for reconstructing decoders, the
    // compressed f_sample * M / N_Phi for the measurement-domain path.
    std::vector<std::vector<double>> signals;
    {
      std::unique_ptr<sim::Model> chain = group.chains->take();
      chain->seek_run(i);
      const sim::LaneBank& received =
          arch::run_chain_batch(*chain, segment.waveform, lanes);
      std::vector<const double*> rows(lanes);
      for (std::size_t k = 0; k < lanes; ++k) rows[k] = received.lane(k);
      signals = group.decoder->decode_lanes(rows, received.samples(), pool);
      // Signal-dependent power (event-driven conversion): the report is
      // only meaningful right after the segment streamed.
      if (live_power) out.power = architecture.power_report(*chain);
      group.chains->give_back(std::move(chain));
    }

    // Ground truth: the clean segment ideally sampled at f_sample over the
    // same wall-clock span (CS drops a trailing partial frame), then mapped
    // into the decoder's output domain (identity for reconstructing
    // decoders; nominal y-encode for the measurement-domain path, so SNR is
    // scored in y-space). snr_vs_reference_db fits the gain, so scale stays
    // free. Every lane decodes the same number of samples from the same
    // clean segment, so one reference serves the group.
    EFF_REQUIRE(!signals.empty() && !signals.front().empty(),
                "front-end produced no samples");
    const auto times = dsp::uniform_times(
        group.decoder->reference_samples(signals.front().size()), f_sample);
    const auto reference = group.decoder->reference(dsp::sample_at_times(
        segment.waveform.samples, segment.waveform.fs, times));

    out.snr_db.resize(lanes);
    std::vector<const std::vector<double>*> lane_records(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      std::vector<double>& signal = signals[k];
      EFF_REQUIRE(signal.size() == signals.front().size(),
                  "lane-dependent decode length");
      out.snr_db[k] = dsp::snr_vs_reference_db(reference, signal);
      // Input-referred signal for the detector (receiver knows the gain).
      for (double& v : signal) v *= inv_gain;
      lane_records[k] = &signal;
    }
    // Accuracy is epoch-level (as with the paper's window-based CNN [20]):
    // every unambiguous 2 s epoch is one decision, scored against the
    // generator's ground-truth discharge annotations, in one lockstep pass
    // over the lane group.
    out.scores = detector_->score_epochs_lanes(
        lane_records, f_sample * group.decoder->rate_scale(), segment.ictal);
  };
  const std::size_t tasks = groups.size() * limit;
  if (pool != nullptr) {
    pool->parallel_for(tasks, run_segment);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) run_segment(t);
  }

  // Reduced in segment order, so the result does not depend on the pool.
  std::vector<EvalMetrics> metrics;
  metrics.reserve(lane_seeds.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 0; k < groups[g].seeds.size(); ++k) {
      EvalMetrics m;
      double snr_sum = 0.0;
      std::size_t correct = 0, scored = 0;
      for (const SegmentResult& r : results[g]) {
        snr_sum += r.snr_db[k];
        correct += r.scores[k].correct;
        scored += r.scores[k].scored;
        if (live_power) m.power_breakdown.merge(r.power);
      }
      if (live_power) {
        m.power_breakdown.scale(1.0 / static_cast<double>(limit));
      } else {
        m.power_breakdown = groups[g].power;
      }
      m.power_w = m.power_breakdown.total_watts();
      m.area_breakdown = groups[g].area;
      m.area_unit_caps = m.area_breakdown.total_unit_caps();
      m.segments_evaluated = limit;
      m.snr_db = snr_sum / static_cast<double>(limit);
      EFF_REQUIRE(scored > 0, "no scorable epochs in the dataset");
      m.accuracy = static_cast<double>(correct) / static_cast<double>(scored);
      metrics.push_back(std::move(m));
    }
  }
  obs::counter("eval/points").inc(lane_seeds.size());
  obs::counter("eval/segments").inc(limit * lane_seeds.size());
  obs::histogram("eval/point_seconds")
      .observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - eval_start)
                   .count());
  return metrics;
}

}  // namespace efficsense::core
