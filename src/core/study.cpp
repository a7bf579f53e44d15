#include "core/study.hpp"

#include <algorithm>
#include <sstream>

#include "arch/architecture.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::core {

StudyConfig StudyConfig::from_env() {
  StudyConfig cfg;
  if (env_bool("EFFICSENSE_FULL", false)) {
    cfg.eval_segments = 500;  // the paper's dataset size
    cfg.train_segments = 200;
  }
  cfg.eval_segments = static_cast<std::size_t>(env_int(
      "EFFICSENSE_SEGMENTS", static_cast<std::int64_t>(cfg.eval_segments)));
  cfg.train_segments = static_cast<std::size_t>(
      env_int("EFFICSENSE_TRAIN_SEGMENTS",
              static_cast<std::int64_t>(cfg.train_segments)));
  return cfg;
}

std::string StudyConfig::cache_key(const std::string& what) const {
  std::ostringstream os;
  os.precision(17);
  os << "study-v2;" << what << ";eval=" << eval_segments
     << ";train=" << train_segments << ";fs=" << synth_fs_hz
     << ";dur=" << segment_duration_s << ";seed=" << seed << ";tol="
     << recon_tol << ";noise=";
  for (double v : noise_grid_uv) os << v << "/";
  os << ";bits=";
  for (double v : bits_grid) os << v << "/";
  os << ";cu=";
  for (double v : dac_cu_grid_f) os << v << "/";
  os << ";m=";
  for (double v : cs_m_grid) os << v << "/";
  os << ";ch=";
  for (double v : cs_c_hold_grid_f) os << v << "/";
  return os.str();
}

std::vector<Candidate> make_candidates(const std::vector<SweepResult>& results,
                                       Merit merit) {
  std::vector<Candidate> out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    Candidate c;
    c.cost = results[i].metrics.power_w;
    c.merit = (merit == Merit::Snr) ? results[i].metrics.snr_db
                                    : results[i].metrics.accuracy;
    c.tag = i;
    out.push_back(c);
  }
  return out;
}

Study::Study(StudyConfig config)
    : config_(std::move(config)), cache_(default_cache()) {}

const classify::EpilepsyDetector& Study::detector() const {
  EFF_REQUIRE(detector_.has_value(), "run() the study first");
  return *detector_;
}

classify::EpilepsyDetector Study::train_or_load_detector(
    const std::function<void(const std::string&)>& log) {
  const std::string key = config_.cache_key("detector");
  if (auto blob = cache_.load(key)) {
    obs::counter("detector_cache/hits").inc();
    if (log) log("detector: loaded from cache");
    return classify::EpilepsyDetector::from_blob(*blob);
  }
  obs::counter("detector_cache/misses").inc();
  if (log) log("detector: training on clean EEG");
  eeg::GeneratorConfig gen_cfg;
  gen_cfg.fs_hz = config_.synth_fs_hz;
  gen_cfg.duration_s = config_.segment_duration_s;
  const eeg::Generator generator(gen_cfg);
  const auto train_set =
      eeg::make_dataset(generator, config_.train_segments / 2,
                        config_.train_segments - config_.train_segments / 2,
                        derive_seed(config_.seed, 0xDE7));
  classify::DetectorConfig det_cfg;
  power::DesignParams probe;  // default rates: detector sees f_sample data
  det_cfg.fs_hz = probe.f_sample_hz();
  auto detector = classify::EpilepsyDetector::train(train_set, det_cfg);
  cache_.store(key, detector.to_blob());
  if (log) {
    log("detector: trained (training accuracy " +
        format_number(100.0 * detector.training_accuracy()) + " %)");
  }
  return detector;
}

StudyResult Study::run(const std::function<void(const std::string&)>& log) {
  EFFICSENSE_SPAN("study/run");
  StudyResult result;
  result.config = config_;

  // Base designs: Table III defaults; CS base enables the encoder.
  result.base_baseline = power::DesignParams{};
  result.base_cs = power::DesignParams{};
  result.base_cs.cs_m = 75;  // overridden by the cs_m axis

  detector_ = train_or_load_detector(log);

  DesignSpace baseline_space;
  std::vector<double> noise_v;
  for (double uv : config_.noise_grid_uv) noise_v.push_back(uv * 1e-6);
  baseline_space.add_axis("lna_noise_vrms", noise_v)
      .add_axis("adc_bits", config_.bits_grid)
      .add_axis("dac_c_unit_f", config_.dac_cu_grid_f);
  DesignSpace cs_space;
  cs_space.add_axis("lna_noise_vrms", noise_v)
      .add_axis("adc_bits", config_.bits_grid)
      .add_axis("cs_m", config_.cs_m_grid)
      .add_axis("cs_c_hold_f", config_.cs_c_hold_grid_f);

  const std::string key_base = config_.cache_key("sweep-baseline");
  const std::string key_cs = config_.cache_key("sweep-cs");
  const auto cached_base = cache_.load(key_base);
  const auto cached_cs = cache_.load(key_cs);
  if (cached_base && cached_cs) {
    // A corrupted or truncated cache (sweep_from_csv skips bad rows) must
    // not silently shrink the search space — fall back to recomputing.
    try {
      auto baseline = sweep_from_csv(*cached_base, result.base_baseline);
      auto cs = sweep_from_csv(*cached_cs, result.base_cs);
      if (baseline.size() == baseline_space.size() &&
          cs.size() == cs_space.size()) {
        obs::counter("sweep_cache/hits").inc(2);
        EFFICSENSE_LOG_INFO("sweeps loaded from cache",
                            {{"points", obs::logv(baseline.size() + cs.size())}});
        if (log) log("sweeps: loaded from cache");
        result.baseline = std::move(baseline);
        result.cs = std::move(cs);
        return result;
      }
      EFFICSENSE_LOG_WARN(
          "cached sweep is incomplete; recomputing",
          {{"baseline_rows", obs::logv(baseline.size())},
           {"baseline_expected", obs::logv(baseline_space.size())},
           {"cs_rows", obs::logv(cs.size())},
           {"cs_expected", obs::logv(cs_space.size())}});
    } catch (const std::exception& e) {
      EFFICSENSE_LOG_WARN("cached sweep unreadable; recomputing",
                          {{"error", e.what()}});
    }
  }
  obs::counter("sweep_cache/misses").inc(2);

  // Dataset (shared by both sweeps).
  eeg::GeneratorConfig gen_cfg;
  gen_cfg.fs_hz = config_.synth_fs_hz;
  gen_cfg.duration_s = config_.segment_duration_s;
  const eeg::Generator generator(gen_cfg);
  const auto dataset = eeg::make_dataset(
      generator, config_.eval_segments / 2,
      config_.eval_segments - config_.eval_segments / 2,
      derive_seed(config_.seed, 0xEA1));

  EvalOptions options;
  options.recon.residual_tol = config_.recon_tol;
  const Evaluator evaluator(power::TechnologyParams{}, &dataset, &*detector_,
                            options);
  const Sweeper sweeper(&evaluator);

  auto progress = [&](const char* label) {
    return [log, label](std::size_t done, std::size_t total) {
      if (log && (done == total || done % 8 == 0)) {
        std::ostringstream os;
        os << label << ": " << done << "/" << total << " points";
        log(os.str());
      }
    };
  };

  // Points are independent and deterministically seeded, so the sweep maps
  // over a pool. EFFICSENSE_THREADS=1 forces the sequential path; 0 (the
  // default) selects hardware concurrency.
  ThreadPool pool(static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("EFFICSENSE_THREADS", 0))));

  if (log) log("sweep baseline: " + format_number(double(baseline_space.size())) + " points");
  result.baseline = sweeper.run(result.base_baseline, baseline_space, &pool,
                                progress("baseline"));

  if (log) log("sweep CS: " + format_number(double(cs_space.size())) + " points");
  result.cs = sweeper.run(result.base_cs, cs_space, &pool, progress("cs"));

  cache_.store(key_base, sweep_to_csv(result.baseline));
  cache_.store(key_cs, sweep_to_csv(result.cs));
  return result;
}

std::string describe_result(const SweepResult& r) {
  std::ostringstream os;
  os << arch::ArchRegistry::instance().for_design(r.design).id() << " ["
     << point_to_string(r.point) << "] power=" << format_power(r.metrics.power_w)
     << " snr=" << format_number(r.metrics.snr_db)
     << " dB acc=" << format_number(100.0 * r.metrics.accuracy)
     << " % area=" << format_number(r.metrics.area_unit_caps) << " Cu";
  return os.str();
}

}  // namespace efficsense::core
