#include "evalpath.hpp"

#include <memory>

#include "arch/architecture.hpp"
#include "cs/solver.hpp"
#include "dsp/metrics.hpp"
#include "dsp/resample.hpp"
#include "sim/lane_bank.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace efficsense;

void LayerTally::add_blocks(const sim::RunStats& stats) {
  std::lock_guard lock(mutex_);
  for (const auto& b : stats.blocks) busy_s_[b.name] += b.seconds;
}

std::map<std::string, double> LayerTally::block_busy_s() const {
  std::lock_guard lock(mutex_);
  return busy_s_;
}

namespace {

/// Evaluator::point_recon: the evaluator-level config with the solver
/// overridden by a swept "solver" axis.
cs::ReconstructorConfig point_recon(const core::Evaluator& evaluator,
                                    const power::DesignParams& design) {
  cs::ReconstructorConfig rc = evaluator.options().recon;
  if (design.cs_solver_code >= 0) {
    rc.solver = cs::SolverRegistry::instance().id_of_code(design.cs_solver_code);
  }
  return rc;
}

std::size_t segment_limit(const EvalEnv& env) {
  std::size_t limit = env.dataset->segments.size();
  const std::size_t cap = env.evaluator->options().max_segments;
  return cap > 0 ? std::min(limit, cap) : limit;
}

}  // namespace

std::string decode_span_name(const core::Evaluator& evaluator,
                             const power::DesignParams& design) {
  if (!design.uses_cs()) return "cs.decode.none";
  return "cs.decode." + point_recon(evaluator, design).solver_id();
}

core::EvalMetrics traced_evaluate(const EvalEnv& env,
                                  const power::DesignParams& design,
                                  std::uint64_t id) {
  const core::Evaluator& ev = *env.evaluator;
  const auto& options = ev.options();
  Span point(PB_SPAN_NAME("core.point"), id);
  design.validate();

  const arch::Architecture* architecture = nullptr;
  {
    Span s(PB_SPAN_NAME("arch.resolve"), id);
    architecture =
        &arch::ArchRegistry::instance().resolve(options.architecture, design);
  }
  std::unique_ptr<sim::Model> chain;
  {
    Span s(PB_SPAN_NAME("arch.build"), id);
    chain = architecture->build_model(ev.tech(), design, options.seeds);
  }
  std::unique_ptr<arch::Decoder> decoder;
  {
    Span s(PB_SPAN_NAME("arch.decoder"), id);
    decoder = architecture->make_decoder(design, options.seeds,
                                         point_recon(ev, design));
  }

  core::EvalMetrics metrics;
  const bool live_power = architecture->signal_dependent_power();
  {
    Span s(PB_SPAN_NAME("arch.report"), id);
    if (!live_power) {
      metrics.power_breakdown = architecture->power_report(*chain);
      metrics.power_w = metrics.power_breakdown.total_watts();
    }
    metrics.area_breakdown = architecture->area_report(*chain);
    metrics.area_unit_caps = metrics.area_breakdown.total_unit_caps();
  }

  const std::size_t limit = segment_limit(env);
  const std::uint32_t decode_name =
      Tracer::instance().enabled()
          ? Tracer::instance().intern(decode_span_name(ev, design))
          : 0;
  const double f_sample = design.f_sample_hz();
  const double inv_gain = 1.0 / design.lna_gain;
  double snr_sum = 0.0;
  std::size_t correct = 0, scored = 0;
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& segment = env.dataset->segments[i];
    // Evaluator::process_segment.
    sim::Waveform received;
    {
      Span s(PB_SPAN_NAME("sim.run"), id);
      received = arch::run_chain(*chain, segment.waveform);
    }
    std::vector<double> signal;
    {
      Span s(decode_name, id);
      signal = decoder->decode(received.samples, env.pool);
    }
    EFF_REQUIRE(!signal.empty(), "front-end produced no samples");
    const auto times =
        dsp::uniform_times(decoder->reference_samples(signal.size()), f_sample);
    const auto reference = decoder->reference(dsp::sample_at_times(
        segment.waveform.samples, segment.waveform.fs, times));
    snr_sum += dsp::snr_vs_reference_db(reference, signal);
    std::vector<double> input_referred(signal.size());
    for (std::size_t k = 0; k < signal.size(); ++k) {
      input_referred[k] = signal[k] * inv_gain;
    }
    const double fs = f_sample * decoder->rate_scale();

    if (live_power) {
      metrics.power_breakdown.merge(architecture->power_report(*chain));
    }
    Span s(PB_SPAN_NAME("classify.score"), id);
    const auto score =
        env.detector->score_epochs(input_referred, fs, segment.ictal);
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
  if (env.tally != nullptr) {
    env.tally->add_blocks(chain->run_stats());
    env.tally->epochs += scored;
  }
  return metrics;
}

std::vector<core::EvalMetrics> traced_evaluate_lanes(
    const EvalEnv& env, const power::DesignParams& design,
    const std::vector<arch::ChainSeeds>& lane_seeds, ThreadPool* pool,
    std::uint64_t id) {
  if (lane_seeds.size() < 2) return {};
  const core::Evaluator& ev = *env.evaluator;
  design.validate();
  const arch::Architecture* architecture = nullptr;
  {
    Span s(PB_SPAN_NAME("arch.resolve"), id);
    architecture = &arch::ArchRegistry::instance().resolve(
        ev.options().architecture, design);
  }
  if (architecture->signal_dependent_power()) return {};
  std::unique_ptr<sim::Model> chain;
  {
    Span s(PB_SPAN_NAME("arch.build"), id);
    chain = architecture->build_batch_model(ev.tech(), design, lane_seeds);
  }
  if (chain == nullptr) return {};
  const std::size_t lanes = lane_seeds.size();
  std::unique_ptr<arch::Decoder> decoder;
  {
    Span s(PB_SPAN_NAME("arch.decoder"), id);
    decoder = architecture->make_decoder(design, lane_seeds.front(),
                                         point_recon(ev, design));
  }

  std::vector<core::EvalMetrics> metrics(lanes);
  {
    Span s(PB_SPAN_NAME("arch.report"), id);
    const sim::PowerReport power = architecture->power_report(*chain);
    const sim::AreaReport area = architecture->area_report(*chain);
    for (core::EvalMetrics& m : metrics) {
      m.power_breakdown = power;
      m.power_w = power.total_watts();
      m.area_breakdown = area;
      m.area_unit_caps = area.total_unit_caps();
    }
  }

  const std::size_t limit = segment_limit(env);
  const std::uint32_t decode_name =
      Tracer::instance().enabled()
          ? Tracer::instance().intern(decode_span_name(ev, design))
          : 0;
  const double f_sample = design.f_sample_hz();
  const double inv_gain = 1.0 / design.lna_gain;
  std::vector<double> snr_sum(lanes, 0.0);
  std::vector<std::size_t> correct(lanes, 0), scored(lanes, 0);
  std::vector<const double*> rows(lanes);
  std::vector<std::vector<double>> input_referred(lanes);
  std::vector<const std::vector<double>*> lane_records(lanes);

  for (std::size_t i = 0; i < limit; ++i) {
    const auto& segment = env.dataset->segments[i];
    const sim::LaneBank* received = nullptr;
    {
      Span s(PB_SPAN_NAME("sim.batch"), id);
      received = &arch::run_chain_batch(*chain, segment.waveform, lanes);
    }
    for (std::size_t k = 0; k < lanes; ++k) rows[k] = received->lane(k);
    std::vector<std::vector<double>> signals;
    {
      Span s(decode_name, id);
      signals = decoder->decode_lanes(rows, received->samples(), pool);
    }
    EFF_REQUIRE(!signals.empty() && !signals.front().empty(),
                "front-end produced no samples");
    const auto times = dsp::uniform_times(
        decoder->reference_samples(signals.front().size()), f_sample);
    const auto reference = decoder->reference(dsp::sample_at_times(
        segment.waveform.samples, segment.waveform.fs, times));
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::vector<double>& signal = signals[k];
      EFF_REQUIRE(signal.size() == signals.front().size(),
                  "lane-dependent decode length");
      snr_sum[k] += dsp::snr_vs_reference_db(reference, signal);
      input_referred[k].resize(signal.size());
      for (std::size_t n = 0; n < signal.size(); ++n) {
        input_referred[k][n] = signal[n] * inv_gain;
      }
      lane_records[k] = &input_referred[k];
    }
    Span s(PB_SPAN_NAME("classify.score"), id);
    const auto scores = env.detector->score_epochs_lanes(
        lane_records, f_sample * decoder->rate_scale(), segment.ictal);
    for (std::size_t k = 0; k < lanes; ++k) {
      correct[k] += scores[k].correct;
      scored[k] += scores[k].scored;
    }
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    metrics[k].segments_evaluated = limit;
    metrics[k].snr_db = snr_sum[k] / static_cast<double>(limit);
    EFF_REQUIRE(scored[k] > 0, "no scorable epochs in the dataset");
    metrics[k].accuracy =
        static_cast<double>(correct[k]) / static_cast<double>(scored[k]);
  }
  if (env.tally != nullptr) {
    env.tally->add_blocks(chain->run_stats());
    for (const std::size_t n : scored) env.tally->epochs += n;
  }
  return metrics;
}

core::MonteCarloResult traced_monte_carlo(const EvalEnv& env,
                                          const power::DesignParams& design,
                                          const core::MonteCarloOptions& options,
                                          std::uint64_t id) {
  EFF_REQUIRE(options.instances >= 1 && options.threads >= 1 &&
                  options.lanes >= 1,
              "traced_monte_carlo needs explicit threads and lanes");
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1 && options.instances > 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
    if (pool->size() <= 1) pool.reset();
  }
  core::MonteCarloResult result;
  result.instances.resize(options.instances);

  const auto seeds_for = [&](std::size_t i) {
    arch::ChainSeeds seeds = env.evaluator->options().seeds;
    seeds.mismatch = derive_seed(options.seed, 2 * i);
    if (options.vary_noise_streams) {
      seeds.noise = derive_seed(options.seed, 2 * i + 1);
    }
    return seeds;
  };
  const auto run_instance = [&](std::size_t i) {
    core::Evaluator local = *env.evaluator;
    local.set_seeds(seeds_for(i));
    EvalEnv e = env;
    e.evaluator = &local;
    e.pool = pool.get();
    result.instances[i] = traced_evaluate(e, design, id);
  };
  const std::size_t lane_width = std::min(options.lanes, options.instances);
  const auto run_group = [&](std::size_t g) {
    const std::size_t first = g * lane_width;
    const std::size_t count = std::min(lane_width, options.instances - first);
    std::vector<arch::ChainSeeds> lane_seeds(count);
    for (std::size_t k = 0; k < count; ++k) lane_seeds[k] = seeds_for(first + k);
    std::vector<core::EvalMetrics> lane_metrics;
    {
      Span group(PB_SPAN_NAME("core.group"), id);
      lane_metrics =
          traced_evaluate_lanes(env, design, lane_seeds, pool.get(), id);
    }
    if (lane_metrics.empty()) {
      for (std::size_t k = 0; k < count; ++k) run_instance(first + k);
      return;
    }
    for (std::size_t k = 0; k < count; ++k) {
      result.instances[first + k] = lane_metrics[k];
    }
  };

  if (lane_width > 1) {
    const std::size_t groups = (options.instances + lane_width - 1) / lane_width;
    if (pool) {
      pool->parallel_for(groups, run_group);
    } else {
      for (std::size_t g = 0; g < groups; ++g) run_group(g);
    }
  } else if (pool) {
    pool->parallel_for(options.instances, run_instance);
  } else {
    for (std::size_t i = 0; i < options.instances; ++i) run_instance(i);
  }

  std::vector<double> snrs, accs;
  for (const auto& m : result.instances) {
    snrs.push_back(m.snr_db);
    accs.push_back(m.accuracy);
    if (m.accuracy >= options.min_accuracy) result.yield += 1.0;
  }
  result.yield /= static_cast<double>(options.instances);
  result.snr_db = core::compute_stats(snrs);
  result.accuracy = core::compute_stats(accs);
  return result;
}

}  // namespace perfbench
