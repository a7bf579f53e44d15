// End-to-end integration: full chains on sines and EEG, the evaluator, the
// sweeper, and the qualitative trends the paper's figures rely on.

#include <gtest/gtest.h>

#include "blocks/sources.hpp"
#include "core/evaluator.hpp"
#include "core/study.hpp"
#include "util/cache.hpp"
#include "dsp/metrics.hpp"
#include "eeg/dataset.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::arch;

namespace {

/// Small shared fixtures (built once; the detector is the slow part).
struct World {
  power::TechnologyParams tech;
  eeg::Dataset dataset;
  classify::EpilepsyDetector detector;

  World()
      : dataset(eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 4, 4,
                                  11)),
        detector(classify::EpilepsyDetector::train(
            eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 12, 12,
                              22),
            [] {
              classify::DetectorConfig cfg;
              cfg.train.epochs = 40;
              return cfg;
            }())) {}
};

World& world() {
  static World w;
  return w;
}

}  // namespace

TEST(EndToEnd, BaselineChainDigitizesSineAtExpectedQuality) {
  power::DesignParams d;
  d.lna_noise_vrms = 1e-6;
  auto chain = build_baseline_chain(world().tech, d, {});
  blocks::SineSource tone("t", 8192.0, 8.0, 50.0,
                          0.9 * (d.v_fs / 2.0) / d.lna_gain);
  const auto out = run_chain(*chain, tone.process({}).front());
  const auto a = dsp::analyze_tone(out.samples, out.fs);
  EXPECT_GT(a.sndr_db, 38.0);
  EXPECT_LT(a.sndr_db, 52.0);
}

TEST(EndToEnd, SnrImprovesWithLowerNoiseFloor) {
  double prev_snr = -100.0;
  for (double uv : {20.0, 5.0, 1.0}) {
    power::DesignParams d;
    d.lna_noise_vrms = uv * 1e-6;
    auto chain = build_baseline_chain(world().tech, d, {});
    blocks::SineSource tone("t", 8192.0, 6.0, 50.0,
                            0.9 * (d.v_fs / 2.0) / d.lna_gain);
    const auto out = run_chain(*chain, tone.process({}).front());
    const auto a = dsp::analyze_tone(out.samples, out.fs);
    EXPECT_GT(a.sndr_db, prev_snr) << uv << " uV";
    prev_snr = a.sndr_db;
  }
}

TEST(EndToEnd, EvaluatorDeterministic) {
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  power::DesignParams d;
  d.lna_noise_vrms = 4e-6;
  const auto m1 = eval.evaluate(d);
  const auto m2 = eval.evaluate(d);
  EXPECT_DOUBLE_EQ(m1.snr_db, m2.snr_db);
  EXPECT_DOUBLE_EQ(m1.accuracy, m2.accuracy);
  EXPECT_DOUBLE_EQ(m1.power_w, m2.power_w);
}

TEST(EndToEnd, BaselineEvaluatorMetricsSane) {
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  power::DesignParams d;
  d.lna_noise_vrms = 2e-6;
  const auto m = eval.evaluate(d);
  EXPECT_GT(m.snr_db, 15.0);
  EXPECT_GE(m.accuracy, 0.85);
  EXPECT_NEAR(m.power_w, 8.3e-6, 1.0e-6);  // LNA ~4 uW + TX 4.3 uW
  EXPECT_EQ(m.segments_evaluated, world().dataset.size());
  EXPECT_GT(m.power_breakdown.watts_of(kTxBlock), 4e-6);
  EXPECT_GT(m.area_unit_caps, 200.0);
}

TEST(EndToEnd, CsChainReconstructsAndDetects) {
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  power::DesignParams d;
  d.lna_noise_vrms = 10e-6;
  d.cs_m = 96;
  const auto m = eval.evaluate(d);
  EXPECT_GT(m.snr_db, 3.0);       // reconstruction carries signal
  EXPECT_GE(m.accuracy, 0.85);    // detection survives compression
  EXPECT_LT(m.power_w, 3e-6);     // far below the baseline's ~8 uW
  EXPECT_GT(m.power_breakdown.watts_of(kCsEncoderBlock), 0.0);
}

TEST(EndToEnd, CsBeatsBaselineOnPowerAtMatchedAccuracy) {
  // The paper's headline trend, at miniature scale.
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  power::DesignParams baseline;
  baseline.lna_noise_vrms = 2e-6;
  power::DesignParams cs = baseline;
  cs.lna_noise_vrms = 10e-6;
  cs.cs_m = 96;
  const auto mb = eval.evaluate(baseline);
  const auto mc = eval.evaluate(cs);
  EXPECT_GE(mc.accuracy, mb.accuracy - 0.13);
  EXPECT_LT(mc.power_w, mb.power_w / 2.5);
  // ... while paying in capacitor area (Fig. 9's trade-off).
  EXPECT_GT(mc.area_unit_caps, 10.0 * mb.area_unit_caps);
}

TEST(EndToEnd, CsTransmitsFewerBits) {
  power::DesignParams d;
  d.cs_m = 96;
  EXPECT_NEAR(d.bit_rate(), power::DesignParams{}.bit_rate() / 4.0, 1e-9);
}

TEST(EndToEnd, SweeperGridMatchesPointwiseEvaluation) {
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  EvalOptions opts;
  opts.max_segments = 4;
  const Evaluator eval_fast(world().tech, &world().dataset, &world().detector,
                            opts);
  const Sweeper sweeper(&eval_fast);
  DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 10e-6});
  space.add_axis("adc_bits", {6, 8});
  const auto results = sweeper.run(power::DesignParams{}, space);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    const auto direct = eval_fast.evaluate(r.design);
    EXPECT_DOUBLE_EQ(r.metrics.snr_db, direct.snr_db);
    EXPECT_DOUBLE_EQ(r.metrics.power_w, direct.power_w);
  }
}

TEST(EndToEnd, SweeperParallelMatchesSequential) {
  EvalOptions opts;
  opts.max_segments = 2;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  const Sweeper sweeper(&eval);
  DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 6e-6, 12e-6});
  ThreadPool pool(3);
  const auto seq = sweeper.run(power::DesignParams{}, space);
  const auto par = sweeper.run(power::DesignParams{}, space, &pool);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i].metrics.snr_db, par[i].metrics.snr_db);
    EXPECT_DOUBLE_EQ(seq[i].metrics.accuracy, par[i].metrics.accuracy);
  }
}

TEST(EndToEnd, ProgressCallbackCoversAllPoints) {
  EvalOptions opts;
  opts.max_segments = 1;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  const Sweeper sweeper(&eval);
  DesignSpace space;
  space.add_axis("adc_bits", {6, 7, 8});
  std::size_t last_done = 0, last_total = 0;
  sweeper.run(power::DesignParams{}, space, nullptr,
              [&](std::size_t done, std::size_t total) {
                last_done = done;
                last_total = total;
              });
  EXPECT_EQ(last_done, 3u);
  EXPECT_EQ(last_total, 3u);
}

TEST(EndToEnd, ProgressMonotonicUnderPool) {
  EvalOptions opts;
  opts.max_segments = 1;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  const Sweeper sweeper(&eval);
  DesignSpace space;
  space.add_axis("adc_bits", {6, 7, 8});
  space.add_axis("lna_noise_vrms", {2e-6, 6e-6, 12e-6});
  ThreadPool pool(4);
  // Progress callbacks are serialized and strictly increasing even with
  // workers finishing out of order; the final call always reports total.
  std::size_t prev = 0;
  bool strictly_increasing = true;
  sweeper.run(power::DesignParams{}, space, &pool,
              [&](std::size_t done, std::size_t total) {
                EXPECT_EQ(total, 9u);
                if (done <= prev) strictly_increasing = false;
                prev = done;
              });
  EXPECT_TRUE(strictly_increasing);
  EXPECT_EQ(prev, 9u);
  // The sweep/progress gauge mirrors the high-water mark.
  EXPECT_GE(obs::gauge("sweep/progress").value(), 9.0);
}

TEST(EndToEnd, HigherResolutionCostsMorePower) {
  const Evaluator eval(world().tech, &world().dataset, &world().detector);
  power::DesignParams d6, d8;
  d6.adc_bits = 6;
  d8.adc_bits = 8;
  EvalOptions opts;
  opts.max_segments = 1;
  const Evaluator fast(world().tech, &world().dataset, &world().detector, opts);
  EXPECT_LT(fast.evaluate(d6).power_w, fast.evaluate(d8).power_w);
}

TEST(EndToEnd, MoreMeasurementsImproveCsSnr) {
  EvalOptions opts;
  opts.max_segments = 2;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  power::DesignParams lo, hi;
  lo.cs_m = 75;
  hi.cs_m = 192;
  lo.lna_noise_vrms = hi.lna_noise_vrms = 5e-6;
  const auto m_lo = eval.evaluate(lo);
  const auto m_hi = eval.evaluate(hi);
  EXPECT_GT(m_hi.snr_db, m_lo.snr_db);
  EXPECT_GT(m_hi.power_w, m_lo.power_w);  // more conversions + bits
}

#include "core/monte_carlo.hpp"

TEST(EndToEnd, MonteCarloMismatchSweep) {
  EvalOptions opts;
  opts.max_segments = 2;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  power::DesignParams d;
  d.cs_m = 96;
  d.lna_noise_vrms = 6e-6;
  MonteCarloOptions mc;
  mc.instances = 4;
  mc.min_accuracy = 0.5;
  const auto r = monte_carlo(eval, d, mc);
  ASSERT_EQ(r.instances.size(), 4u);
  // Mismatch must actually vary across instances (different fabrications).
  bool any_snr_diff = false;
  for (std::size_t i = 1; i < r.instances.size(); ++i) {
    if (r.instances[i].snr_db != r.instances[0].snr_db) any_snr_diff = true;
  }
  EXPECT_TRUE(any_snr_diff);
  // Power is analytic and mismatch-independent.
  for (const auto& m : r.instances) {
    EXPECT_DOUBLE_EQ(m.power_w, r.instances[0].power_w);
  }
  EXPECT_GE(r.yield, 0.0);
  EXPECT_LE(r.yield, 1.0);
  EXPECT_GE(r.snr_db.max, r.snr_db.mean);
  EXPECT_LE(r.snr_db.min, r.snr_db.mean);
}

TEST(EndToEnd, MonteCarloDeterministic) {
  EvalOptions opts;
  opts.max_segments = 1;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  power::DesignParams d;
  d.cs_m = 96;
  MonteCarloOptions mc;
  mc.instances = 3;
  const auto a = monte_carlo(eval, d, mc);
  const auto b = monte_carlo(eval, d, mc);
  EXPECT_DOUBLE_EQ(a.snr_db.mean, b.snr_db.mean);
  EXPECT_DOUBLE_EQ(a.accuracy.mean, b.accuracy.mean);
}

TEST(EndToEnd, MonteCarloLanesBitIdenticalToScalarPath) {
  // The batched SoA engine: instances grouped into K-wide lanes must
  // reproduce the scalar per-instance path bit-for-bit, including a partial
  // trailing group (5 instances at lanes=2 -> groups of 2+2+1; the size-1
  // group falls back to scalar evaluation inside monte_carlo).
  EvalOptions opts;
  opts.max_segments = 2;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  power::DesignParams d;
  d.cs_m = 96;
  d.lna_noise_vrms = 6e-6;
  for (const bool vary_noise : {false, true}) {
    MonteCarloOptions scalar;
    scalar.instances = 5;
    scalar.lanes = 1;
    scalar.min_accuracy = 0.5;
    scalar.vary_noise_streams = vary_noise;
    scalar.threads = 1;
    MonteCarloOptions batched = scalar;
    batched.lanes = 8;  // clamps to 5: one full-width group
    MonteCarloOptions grouped = scalar;
    grouped.lanes = 2;  // 2 + 2 + 1: exercises the remainder group

    const auto a = monte_carlo(eval, d, scalar);
    for (const auto* r : {&batched, &grouped}) {
      const auto b = monte_carlo(eval, d, *r);
      ASSERT_EQ(b.instances.size(), a.instances.size());
      for (std::size_t i = 0; i < a.instances.size(); ++i) {
        EXPECT_DOUBLE_EQ(b.instances[i].snr_db, a.instances[i].snr_db)
            << "lanes=" << r->lanes << " instance " << i
            << (vary_noise ? " (varied noise)" : "");
        EXPECT_DOUBLE_EQ(b.instances[i].accuracy, a.instances[i].accuracy);
        EXPECT_DOUBLE_EQ(b.instances[i].power_w, a.instances[i].power_w);
      }
      EXPECT_DOUBLE_EQ(b.snr_db.mean, a.snr_db.mean);
      EXPECT_DOUBLE_EQ(b.yield, a.yield);
    }
  }
}

TEST(EndToEnd, MonteCarloLanesMatchScalarOnUnbatchedArchitecture) {
  // cs_active has no batched model: the grouped path must transparently
  // fall back to per-instance scalar evaluation with identical results.
  EvalOptions opts;
  opts.max_segments = 1;
  const Evaluator eval(world().tech, &world().dataset, &world().detector, opts);
  power::DesignParams d;
  d.cs_m = 96;
  d.cs_style = power::CsStyle::ActiveIntegrator;
  MonteCarloOptions scalar;
  scalar.instances = 3;
  scalar.lanes = 1;
  MonteCarloOptions batched = scalar;
  batched.lanes = 4;
  const auto a = monte_carlo(eval, d, scalar);
  const auto b = monte_carlo(eval, d, batched);
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.instances[i].snr_db, a.instances[i].snr_db);
    EXPECT_DOUBLE_EQ(b.instances[i].accuracy, a.instances[i].accuracy);
  }
}

TEST(EndToEnd, StudyRunsAndCaches) {
  // A miniature end-to-end study: tiny dataset, 2-point grids. The second
  // run must come entirely from the file cache and agree bit-for-bit.
  StudyConfig cfg;
  cfg.eval_segments = 4;
  cfg.train_segments = 8;
  cfg.noise_grid_uv = {4.0, 12.0};
  cfg.bits_grid = {8};
  cfg.dac_cu_grid_f = {1e-15};
  cfg.cs_m_grid = {96};
  cfg.cs_c_hold_grid_f = {1e-12};
  cfg.seed = 777123;  // unique cache namespace for this test

  Study first(cfg);
  const auto a = first.run();
  ASSERT_EQ(a.baseline.size(), 2u);
  ASSERT_EQ(a.cs.size(), 2u);
  for (const auto& r : a.baseline) {
    EXPECT_FALSE(r.design.uses_cs());
    EXPECT_GT(r.metrics.power_w, 0.0);
  }
  for (const auto& r : a.cs) EXPECT_TRUE(r.design.uses_cs());

  std::vector<std::string> log_lines;
  Study second(cfg);
  const auto b = second.run([&](const std::string& l) { log_lines.push_back(l); });
  bool loaded_from_cache = false;
  for (const auto& l : log_lines) {
    if (l.find("cache") != std::string::npos) loaded_from_cache = true;
  }
  EXPECT_TRUE(loaded_from_cache);
  ASSERT_EQ(b.baseline.size(), a.baseline.size());
  for (std::size_t i = 0; i < a.baseline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.baseline[i].metrics.snr_db, b.baseline[i].metrics.snr_db);
    EXPECT_DOUBLE_EQ(a.baseline[i].metrics.accuracy,
                     b.baseline[i].metrics.accuracy);
  }
  for (std::size_t i = 0; i < a.cs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cs[i].metrics.snr_db, b.cs[i].metrics.snr_db);
    EXPECT_DOUBLE_EQ(a.cs[i].metrics.power_w, b.cs[i].metrics.power_w);
  }
  // Detector accessible after run().
  EXPECT_GT(second.detector().training_accuracy(), 0.5);

  // Clean this test's cache entries so repeated ctest runs re-exercise the
  // compute path.
  FileCache cache = default_cache();
  cache.erase(cfg.cache_key("detector"));
  cache.erase(cfg.cache_key("sweep-baseline"));
  cache.erase(cfg.cache_key("sweep-cs"));
}
