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

Evaluator::SegmentOutcome Evaluator::process_segment(
    sim::Model& chain, const arch::Decoder& decoder,
    const power::DesignParams& design, const sim::Waveform& clean) const {
  SegmentOutcome out;
  const sim::Waveform received = arch::run_chain(chain, clean);

  // At LNA-output scale; rate f_sample for reconstructing decoders, the
  // compressed f_sample * M / N_Phi for the measurement-domain path.
  std::vector<double> signal = decoder.decode(received.samples, pool_);
  EFF_REQUIRE(!signal.empty(), "front-end produced no samples");

  // Ground truth: the clean segment ideally sampled at f_sample over the
  // same wall-clock span (CS drops a trailing partial frame), then mapped
  // into the decoder's output domain (identity for reconstructing decoders;
  // nominal y-encode for the measurement-domain path, so SNR is scored in
  // y-space). snr_vs_reference_db fits the gain, so scale stays free.
  const double f_sample = design.f_sample_hz();
  const auto times =
      dsp::uniform_times(decoder.reference_samples(signal.size()), f_sample);
  const auto reference =
      decoder.reference(dsp::sample_at_times(clean.samples, clean.fs, times));

  out.snr_db = dsp::snr_vs_reference_db(reference, signal);

  // Input-referred signal for the detector (receiver knows the LNA gain).
  out.received.resize(signal.size());
  const double inv_gain = 1.0 / design.lna_gain;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out.received[i] = signal[i] * inv_gain;
  }
  out.fs = f_sample * decoder.rate_scale();
  return out;
}

EvalMetrics Evaluator::evaluate(const power::DesignParams& design) const {
  EFFICSENSE_SPAN("eval/point");
  const auto eval_start = std::chrono::steady_clock::now();
  design.validate();

  const arch::Architecture& architecture =
      arch::ArchRegistry::instance().resolve(options_.architecture, design);
  auto chain = architecture.build_model(tech_, design, options_.seeds);
  // Decoders built through the architecture share reconstructors via the
  // cross-point ReconstructorCache: they depend only on the Phi seed + CS
  // config — never on the mismatch/noise seeds — so every Monte-Carlo
  // instance and every sweep point sharing the design's CS front-end reuses
  // one dictionary + Gram.
  const auto decoder =
      architecture.make_decoder(design, options_.seeds, point_recon(design));

  EvalMetrics metrics;
  const bool live_power = architecture.signal_dependent_power();
  if (!live_power) {
    metrics.power_breakdown = architecture.power_report(*chain);
    metrics.power_w = metrics.power_breakdown.total_watts();
  }
  metrics.area_breakdown = architecture.area_report(*chain);
  metrics.area_unit_caps = metrics.area_breakdown.total_unit_caps();

  std::size_t limit = dataset_->segments.size();
  if (options_.max_segments > 0) {
    limit = std::min(limit, options_.max_segments);
  }

  // Accuracy is epoch-level (as with the paper's window-based CNN [20]):
  // every unambiguous 2 s epoch of every segment is one decision, scored
  // against the generator's ground-truth discharge annotations.
  double snr_sum = 0.0;
  std::size_t correct = 0, scored = 0;
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& segment = dataset_->segments[i];
    const auto outcome =
        process_segment(*chain, *decoder, design, segment.waveform);
    snr_sum += outcome.snr_db;
    if (live_power) {
      // Signal-dependent power (event-driven conversion): the report is
      // only meaningful right after the segment streamed; average over the
      // dataset.
      metrics.power_breakdown.merge(architecture.power_report(*chain));
    }
    const auto score =
        detector_->score_epochs(outcome.received, outcome.fs, segment.ictal);
    correct += score.correct;
    scored += score.scored;
  }
  metrics.segments_evaluated = limit;
  metrics.snr_db = snr_sum / static_cast<double>(limit);
  if (live_power) {
    metrics.power_breakdown.scale(1.0 / static_cast<double>(limit));
    metrics.power_w = metrics.power_breakdown.total_watts();
  }
  EFF_REQUIRE(scored > 0, "no scorable epochs in the dataset");
  metrics.accuracy = static_cast<double>(correct) / static_cast<double>(scored);
  obs::counter("eval/points").inc();
  obs::counter("eval/segments").inc(limit);
  obs::histogram("eval/point_seconds")
      .observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - eval_start)
                   .count());
  return metrics;
}

namespace {

/// The batch chains of one lane group. A segment task takes an idle chain
/// (or builds one when all are busy) and gives it back when its bank has
/// been decoded, so at most one chain lives per executor running the
/// group's segments.
class ChainFreeList {
 public:
  using Build = std::function<std::unique_ptr<sim::Model>()>;
  explicit ChainFreeList(Build build) : build_(std::move(build)) {}

  /// An idle chain, or a freshly built one (nullptr when the architecture
  /// has no batched model).
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
    if (chain != nullptr) obs::counter("eval/batch_chain_builds").inc();
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

}  // namespace

std::vector<EvalMetrics> Evaluator::evaluate_lanes(
    const power::DesignParams& design,
    const std::vector<arch::ChainSeeds>& lane_seeds) const {
  if (lane_seeds.size() < 2) return {};  // scalar path covers K <= 1
  design.validate();
  const arch::Architecture& architecture =
      arch::ArchRegistry::instance().resolve(options_.architecture, design);
  // Live (signal-dependent) power must be sampled per scalar instance.
  if (architecture.signal_dependent_power()) return {};
  ChainFreeList chains(
      [&] { return architecture.build_batch_model(tech_, design, lane_seeds); });
  auto chain = chains.take();
  if (chain == nullptr) return {};

  EFFICSENSE_SPAN("eval/batch_point");
  const auto eval_start = std::chrono::steady_clock::now();
  const std::size_t lanes = lane_seeds.size();

  // One decoder serves every lane: reconstructors depend only on the shared
  // phi seed + CS config, never on mismatch/noise seeds.
  const auto decoder =
      architecture.make_decoder(design, lane_seeds.front(),
                                point_recon(design));

  // Power/area are deterministic functions of (tech, design) — independent
  // of the drawn mismatch — so one report serves all lanes (the scalar path
  // recomputes the identical report per instance).
  std::vector<EvalMetrics> metrics(lanes);
  const sim::PowerReport power = architecture.power_report(*chain);
  const sim::AreaReport area = architecture.area_report(*chain);
  for (EvalMetrics& m : metrics) {
    m.power_breakdown = power;
    m.power_w = power.total_watts();
    m.area_breakdown = area;
    m.area_unit_caps = area.total_unit_caps();
  }

  std::size_t limit = dataset_->segments.size();
  if (options_.max_segments > 0) {
    limit = std::min(limit, options_.max_segments);
  }

  // Segment i is fully determined by its run index (every noise block seeds
  // run i from derive_seed(seed, i)), so segments fan out over the pool,
  // each on a chain seeked to run i. The per-window decode fans out over the
  // same (reentrant) pool, so a lone segment still uses every executor and
  // idle executors in the last round help decode the windows still open.
  chains.give_back(std::move(chain));

  struct SegmentResult {
    std::vector<double> snr_db;  ///< per lane
    std::vector<classify::EpilepsyDetector::EpochScore> scores;
  };
  std::vector<SegmentResult> results(limit);
  const double f_sample = design.f_sample_hz();
  const double inv_gain = 1.0 / design.lna_gain;

  const auto run_segment = [&](std::size_t i) {
    const auto& segment = dataset_->segments[i];
    std::vector<std::vector<double>> signals;
    {
      std::unique_ptr<sim::Model> lane_chain = chains.take();
      lane_chain->seek_run(i);
      const sim::LaneBank& received =
          arch::run_chain_batch(*lane_chain, segment.waveform, lanes);
      std::vector<const double*> rows(lanes);
      for (std::size_t k = 0; k < lanes; ++k) rows[k] = received.lane(k);
      signals = decoder->decode_lanes(rows, received.samples(), pool_);
      chains.give_back(std::move(lane_chain));
    }

    // Ground truth: shared across lanes — every lane decodes the same
    // number of samples from the same clean segment. Mapped into the
    // decoder's output domain exactly as in process_segment.
    EFF_REQUIRE(!signals.empty() && !signals.front().empty(),
                "front-end produced no samples");
    const auto times = dsp::uniform_times(
        decoder->reference_samples(signals.front().size()), f_sample);
    const auto reference = decoder->reference(dsp::sample_at_times(
        segment.waveform.samples, segment.waveform.fs, times));

    SegmentResult& out = results[i];
    out.snr_db.resize(lanes);
    std::vector<const std::vector<double>*> lane_records(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      std::vector<double>& signal = signals[k];
      EFF_REQUIRE(signal.size() == signals.front().size(),
                  "lane-dependent decode length");
      out.snr_db[k] = dsp::snr_vs_reference_db(reference, signal);
      for (double& v : signal) v *= inv_gain;  // input-referred
      lane_records[k] = &signal;
    }
    // One lockstep scoring pass over the lane group: the Welch/FFT feature
    // schedule is shared, each lane's score matches score_epochs exactly.
    out.scores = detector_->score_epochs_lanes(
        lane_records, f_sample * decoder->rate_scale(), segment.ictal);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(limit, run_segment);
  } else {
    for (std::size_t i = 0; i < limit; ++i) run_segment(i);
  }

  // Reduced in segment order, exactly as the scalar path accumulates.
  for (std::size_t k = 0; k < lanes; ++k) {
    double snr_sum = 0.0;
    std::size_t correct = 0, scored = 0;
    for (const SegmentResult& r : results) {
      snr_sum += r.snr_db[k];
      correct += r.scores[k].correct;
      scored += r.scores[k].scored;
    }
    metrics[k].segments_evaluated = limit;
    metrics[k].snr_db = snr_sum / static_cast<double>(limit);
    EFF_REQUIRE(scored > 0, "no scorable epochs in the dataset");
    metrics[k].accuracy =
        static_cast<double>(correct) / static_cast<double>(scored);
  }
  obs::counter("eval/points").inc(lanes);
  obs::counter("eval/segments").inc(limit * lanes);
  obs::histogram("eval/point_seconds")
      .observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - eval_start)
                   .count());
  return metrics;
}

}  // namespace efficsense::core
