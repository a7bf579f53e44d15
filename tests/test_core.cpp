// Core pathfinding framework: design spaces, Pareto analysis, chain
// construction and sweep serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "arch/chain.hpp"
#include "core/design_space.hpp"
#include "core/pareto.hpp"
#include "core/sweep.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::arch;

TEST(DesignSpace, CartesianEnumeration) {
  DesignSpace space;
  space.add_axis("a", {1, 2, 3}).add_axis("b", {10, 20});
  EXPECT_EQ(space.axis_count(), 2u);
  EXPECT_EQ(space.size(), 6u);
  std::set<std::pair<double, double>> seen;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto p = space.point(i);
    seen.insert({p.at("a"), p.at("b")});
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_THROW(space.point(6), Error);
}

TEST(DesignSpace, EmptySpaceHasOnePoint) {
  DesignSpace space;
  EXPECT_EQ(space.size(), 1u);
  EXPECT_TRUE(space.point(0).empty());
}

TEST(DesignSpace, DuplicateAxisRejected) {
  DesignSpace space;
  space.add_axis("a", {1});
  EXPECT_THROW(space.add_axis("a", {2}), Error);
  EXPECT_THROW(space.add_axis("b", {}), Error);
}

TEST(ApplyAxis, MapsAllSupportedNames) {
  power::DesignParams d;
  apply_axis(d, "lna_noise_vrms", 5e-6);
  apply_axis(d, "adc_bits", 6);
  apply_axis(d, "cs_m", 75);
  apply_axis(d, "cs_c_hold_f", 1e-12);
  apply_axis(d, "dac_c_unit_f", 4e-15);
  apply_axis(d, "cs_sparsity", 3);
  apply_axis(d, "lna_gain", 500);
  EXPECT_DOUBLE_EQ(d.lna_noise_vrms, 5e-6);
  EXPECT_EQ(d.adc_bits, 6);
  EXPECT_EQ(d.cs_m, 75);
  EXPECT_DOUBLE_EQ(d.cs_c_hold_f, 1e-12);
  EXPECT_EQ(d.cs_sparsity, 3);
  EXPECT_THROW(apply_axis(d, "not_a_knob", 1.0), Error);
}

TEST(ApplyPoint, OverridesOnlyNamedFields) {
  power::DesignParams base;
  const auto d = apply_point(base, {{"adc_bits", 6.0}});
  EXPECT_EQ(d.adc_bits, 6);
  EXPECT_DOUBLE_EQ(d.lna_noise_vrms, base.lna_noise_vrms);
}

TEST(PointString, RoundTrip) {
  const PointValues p{{"a", 1.5}, {"b", 2e-12}};
  const auto parsed = parse_point(point_to_string(p));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("a"), 1.5);
  EXPECT_NEAR(parsed.at("b"), 2e-12, 1e-18);
  EXPECT_TRUE(parse_point("").empty());
  EXPECT_THROW(parse_point("malformed"), Error);
}

TEST(Pareto, FrontIsNonDominatedAndSorted) {
  std::vector<Candidate> cands = {
      {1.0, 5.0, 0}, {2.0, 4.0, 1},  // dominated by 0
      {2.0, 7.0, 2}, {3.0, 7.0, 3},  // 3 dominated by 2
      {4.0, 9.0, 4},
  };
  const auto front = pareto_front(cands);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].tag, 0u);
  EXPECT_EQ(front[1].tag, 2u);
  EXPECT_EQ(front[2].tag, 4u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].cost, front[i - 1].cost);
    EXPECT_GT(front[i].merit, front[i - 1].merit);
  }
}

TEST(Pareto, PropertyNoFrontMemberDominated) {
  // Pseudo-random candidate cloud; verify the front's invariant.
  std::vector<Candidate> cands;
  std::uint64_t s = 12345;
  for (std::size_t i = 0; i < 200; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double cost = static_cast<double>((s >> 33) % 1000) / 10.0;
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double merit = static_cast<double>((s >> 33) % 1000) / 10.0;
    cands.push_back({cost, merit, i});
  }
  const auto front = pareto_front(cands);
  for (const auto& f : front) {
    for (const auto& c : cands) {
      const bool dominates = (c.cost <= f.cost && c.merit >= f.merit) &&
                             (c.cost < f.cost || c.merit > f.merit);
      EXPECT_FALSE(dominates) << "front member " << f.tag << " dominated by "
                              << c.tag;
    }
  }
}

TEST(Pareto, CheapestWithMerit) {
  const std::vector<Candidate> cands = {
      {10.0, 0.99, 0}, {5.0, 0.985, 1}, {2.0, 0.97, 2}};
  const auto best = cheapest_with_merit(cands, 0.98);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->tag, 1u);
  EXPECT_FALSE(cheapest_with_merit(cands, 0.999).has_value());
}

TEST(Pareto, BestMeritWhere) {
  const std::vector<Candidate> cands = {
      {10.0, 0.99, 0}, {5.0, 0.95, 1}, {2.0, 0.97, 2}};
  const auto best = best_merit_where(
      cands, [](const Candidate& c) { return c.cost < 6.0; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->tag, 2u);
  const auto none = best_merit_where(
      cands, [](const Candidate& c) { return c.cost < 0.0; });
  EXPECT_FALSE(none.has_value());
}

TEST(Chain, BaselineStructure) {
  const power::TechnologyParams tech;
  power::DesignParams d;
  const auto chain = build_baseline_chain(tech, d, {});
  EXPECT_EQ(chain->num_blocks(), 5u);
  for (const char* name : {kSourceBlock, kLnaBlock, kSampleHoldBlock,
                           kAdcBlock, kTxBlock}) {
    EXPECT_TRUE(chain->has_block(name)) << name;
  }
  EXPECT_FALSE(chain->has_block(kCsEncoderBlock));
}

TEST(Chain, CsStructure) {
  const power::TechnologyParams tech;
  power::DesignParams d;
  d.cs_m = 75;
  const auto chain = build_cs_chain(tech, d, {});
  EXPECT_TRUE(chain->has_block(kCsEncoderBlock));
  EXPECT_FALSE(chain->has_block(kSampleHoldBlock));
  // build_chain dispatches on uses_cs().
  EXPECT_TRUE(build_chain(tech, d, {})->has_block(kCsEncoderBlock));
  d.cs_m = 0;
  EXPECT_FALSE(build_chain(tech, d, {})->has_block(kCsEncoderBlock));
  d.cs_m = 75;
  d.cs_m = 0;
  EXPECT_THROW(build_cs_chain(tech, d, {}), Error);
}

TEST(Chain, RunProducesSampledOutput) {
  const power::TechnologyParams tech;
  power::DesignParams d;
  auto chain = build_baseline_chain(tech, d, {});
  const sim::Waveform input(2048.0, std::vector<double>(2048 * 2, 1e-4));
  const auto out = run_chain(*chain, input);
  EXPECT_DOUBLE_EQ(out.fs, d.f_sample_hz());
  EXPECT_EQ(out.size(), static_cast<std::size_t>(2.0 * d.f_sample_hz()));
}

TEST(Chain, MatchedReconstructorDimensions) {
  power::DesignParams d;
  d.cs_m = 96;
  const auto rec = make_matched_reconstructor(d, {});
  EXPECT_EQ(rec.measurements_per_frame(), 96u);
  EXPECT_EQ(rec.frame_length(), 384u);
  d.cs_m = 0;
  EXPECT_THROW(make_matched_reconstructor(d, {}), Error);
}

TEST(SweepCsv, RoundTrip) {
  SweepResult r;
  r.point = {{"adc_bits", 8.0}, {"lna_noise_vrms", 3e-6}};
  r.design = apply_point(power::DesignParams{}, r.point);
  r.metrics.snr_db = 21.5;
  r.metrics.accuracy = 0.975;
  r.metrics.power_w = 4.2e-6;
  r.metrics.area_unit_caps = 1234.0;
  r.metrics.segments_evaluated = 40;
  r.metrics.power_breakdown.add("lna", 1e-6);
  r.metrics.power_breakdown.add("tx", 3.2e-6);
  r.metrics.area_breakdown.add("adc", 1234.0);

  const auto csv = sweep_to_csv({r});
  const auto back = sweep_from_csv(csv, power::DesignParams{});
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].design.adc_bits, 8);
  EXPECT_DOUBLE_EQ(back[0].metrics.snr_db, 21.5);
  EXPECT_DOUBLE_EQ(back[0].metrics.accuracy, 0.975);
  EXPECT_DOUBLE_EQ(back[0].metrics.power_breakdown.watts_of("tx"), 3.2e-6);
  EXPECT_DOUBLE_EQ(back[0].metrics.area_breakdown.caps_of("adc"), 1234.0);
  EXPECT_EQ(back[0].metrics.segments_evaluated, 40u);
}

TEST(SweepCsv, RejectsGarbage) {
  EXPECT_THROW(sweep_from_csv("", power::DesignParams{}), Error);
  EXPECT_THROW(sweep_from_csv("wrong,header\n", power::DesignParams{}), Error);
}

TEST(SweepCsv, SkipsMalformedRows) {
  // A cache file corrupted mid-write (truncated row) or bit-flipped
  // (non-numeric field) must not take the whole sweep down: good rows
  // load, bad rows are skipped with a warning.
  std::vector<SweepResult> results(3);
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& r = results[i];
    r.point = {{"adc_bits", 6.0 + double(i)}};
    r.design = apply_point(power::DesignParams{}, r.point);
    r.metrics.snr_db = 10.0 + double(i);
    r.metrics.accuracy = 0.9;
    r.metrics.power_w = 1e-6;
    r.metrics.segments_evaluated = 4;
  }
  const auto csv = sweep_to_csv(results);
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 rows

  // Corrupt row 2 with garbage and truncate row 3 (as a torn write would).
  const auto comma = lines[2].find(',');
  lines[2] = "not_a_number" + lines[2].substr(comma);
  lines[3] = lines[3].substr(0, lines[3].size() / 2);
  std::string corrupted;
  for (const auto& line : lines) corrupted += line + "\n";

  const auto before = efficsense::obs::counter("sweep_csv/rows_skipped").value();
  const auto back = sweep_from_csv(corrupted, power::DesignParams{});
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].design.adc_bits, 6);
  EXPECT_DOUBLE_EQ(back[0].metrics.snr_db, 10.0);
  EXPECT_EQ(efficsense::obs::counter("sweep_csv/rows_skipped").value(),
            before + 2);
}

TEST(StudyConfig, CacheKeyDependsOnEverything) {
  StudyConfig a, b;
  EXPECT_EQ(a.cache_key("x"), b.cache_key("x"));
  EXPECT_NE(a.cache_key("x"), a.cache_key("y"));
  b.eval_segments += 1;
  EXPECT_NE(a.cache_key("x"), b.cache_key("x"));
  b = a;
  b.noise_grid_uv.push_back(25.0);
  EXPECT_NE(a.cache_key("x"), b.cache_key("x"));
}

TEST(MakeCandidates, SelectsMerit) {
  SweepResult r;
  r.metrics.snr_db = 12.0;
  r.metrics.accuracy = 0.9;
  r.metrics.power_w = 1e-6;
  const auto snr = make_candidates({r}, Merit::Snr);
  const auto acc = make_candidates({r}, Merit::Accuracy);
  EXPECT_DOUBLE_EQ(snr[0].merit, 12.0);
  EXPECT_DOUBLE_EQ(acc[0].merit, 0.9);
  EXPECT_DOUBLE_EQ(snr[0].cost, 1e-6);
}

#include "core/monte_carlo.hpp"

TEST(MonteCarloStats, HandComputed) {
  const auto s = compute_stats({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_THROW(compute_stats({}), Error);
}

// ---------------------------------------------------------------------------
// Cross-point reconstructor cache: Monte-Carlo instances redraw mismatch and
// noise seeds but share the sensing matrix, so they must share one cached
// reconstructor (and thus one Gram build).

#include "arch/recon_cache.hpp"

TEST(ReconstructorCache, SharedAcrossMismatchAndNoiseSeeds) {
  auto& cache = ReconstructorCache::instance();
  cache.clear();
  power::DesignParams design;
  design.adc_bits = 8;
  design.cs_m = 40;  // small CS design so the build is cheap

  ChainSeeds seeds1;
  seeds1.phi = 123;
  seeds1.mismatch = 1;
  seeds1.noise = 2;
  ChainSeeds seeds2 = seeds1;
  seeds2.mismatch = 99;  // a different fabricated instance...
  seeds2.noise = 77;     // ...with fresh noise streams

  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;

  const auto hits0 = efficsense::obs::counter("omp/cache_hits").value();
  const auto builds0 = efficsense::obs::counter("omp/gram_builds").value();
  const auto r1 = cache.get(design, seeds1, cfg);
  const auto r2 = cache.get(design, seeds2, cfg);
  EXPECT_EQ(r1.get(), r2.get());  // one shared reconstructor
  EXPECT_EQ(efficsense::obs::counter("omp/gram_builds").value(), builds0 + 1);
  EXPECT_EQ(efficsense::obs::counter("omp/cache_hits").value(), hits0 + 1);
  EXPECT_EQ(cache.size(), 1u);

  ChainSeeds seeds3 = seeds1;
  seeds3.phi = 456;  // a different sensing-matrix draw is a different entry
  const auto r3 = cache.get(design, seeds3, cfg);
  EXPECT_NE(r3.get(), r1.get());
  EXPECT_EQ(efficsense::obs::counter("omp/gram_builds").value(), builds0 + 2);
  EXPECT_EQ(cache.size(), 2u);

  cs::ReconstructorConfig cfg2 = cfg;
  cfg2.omp_mode = cs::OmpMode::Naive;  // solver config is part of the key
  const auto r4 = cache.get(design, seeds1, cfg2);
  EXPECT_NE(r4.get(), r1.get());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ReconstructorCache, KeyCoversPhiAndConfig) {
  power::DesignParams design;
  design.cs_m = 40;
  ChainSeeds a, b;
  cs::ReconstructorConfig cfg;
  EXPECT_EQ(reconstructor_cache_key(design, a, cfg),
            reconstructor_cache_key(design, b, cfg));
  b.mismatch = 999;
  b.noise = 888;
  EXPECT_EQ(reconstructor_cache_key(design, a, cfg),
            reconstructor_cache_key(design, b, cfg));
  b.phi = 777;
  EXPECT_NE(reconstructor_cache_key(design, a, cfg),
            reconstructor_cache_key(design, b, cfg));
  cs::ReconstructorConfig cfg2 = cfg;
  cfg2.residual_tol *= 2.0;
  EXPECT_NE(reconstructor_cache_key(design, a, cfg),
            reconstructor_cache_key(design, a, cfg2));
  power::DesignParams design2 = design;
  design2.cs_m = 50;
  EXPECT_NE(reconstructor_cache_key(design, a, cfg),
            reconstructor_cache_key(design2, a, cfg));
}

// ---------------------------------------------------------------------------
// Threads x lanes: evaluate_lanes fans a lane group's segments out over the
// evaluator's pool (each segment on a batch chain seeked to its run index,
// results reduced in segment order), and monte_carlo nests that fan-out
// under its lane-group fan-out. Neither may move a single bit.

#include <bit>

#include "classify/detector.hpp"
#include "core/monte_carlo.hpp"
#include "eeg/dataset.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

struct PoolWorld {
  power::TechnologyParams tech;
  eeg::Dataset dataset;
  classify::EpilepsyDetector detector;

  PoolWorld()
      : dataset(eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 2, 2,
                                  11)),
        detector(classify::EpilepsyDetector::train(
            eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 8, 8,
                              22),
            [] {
              classify::DetectorConfig cfg;
              cfg.train.epochs = 20;
              return cfg;
            }())) {}
};

const PoolWorld& pool_world() {
  static const PoolWorld w;
  return w;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const EvalMetrics& a, const EvalMetrics& b,
                          const std::string& where) {
  EXPECT_EQ(bits(a.snr_db), bits(b.snr_db)) << where;
  EXPECT_EQ(bits(a.accuracy), bits(b.accuracy)) << where;
  EXPECT_EQ(bits(a.power_w), bits(b.power_w)) << where;
  EXPECT_EQ(bits(a.area_unit_caps), bits(b.area_unit_caps)) << where;
  EXPECT_EQ(a.segments_evaluated, b.segments_evaluated) << where;
}

power::DesignParams pooled_design(int cs_m, power::CsStyle style) {
  power::DesignParams d;
  d.cs_m = cs_m;
  d.cs_style = style;
  d.lna_noise_vrms = 6e-6;
  return d;
}

}  // namespace

TEST(PooledLanes, EvaluateLanesInvariantToPoolSize) {
  const auto& w = pool_world();
  std::vector<ChainSeeds> three(3);
  for (std::size_t k = 0; k < three.size(); ++k) {
    three[k].mismatch = derive_seed(0xFAB, 2 * k);
    three[k].noise = derive_seed(0xFAB, 2 * k + 1);
  }
  std::vector<ChainSeeds> one(three.begin(), three.begin() + 1);
  // cs_active has no batched model and lc_adc has signal-dependent power:
  // both run as one-lane groups, one group per lane.
  const struct {
    const char* id;
    power::DesignParams design;
    bool one_lane_groups;
  } cases[] = {
      {"baseline", pooled_design(0, power::CsStyle::PassiveCharge), false},
      {"cs_passive", pooled_design(75, power::CsStyle::PassiveCharge), false},
      {"cs_digital", pooled_design(75, power::CsStyle::DigitalMac), false},
      {"cs_active", pooled_design(75, power::CsStyle::ActiveIntegrator), true},
      {"lc_adc", pooled_design(0, power::CsStyle::PassiveCharge), true},
  };
  ThreadPool pool1(1), pool2(2), pool4(4);
  auto& builds = obs::counter("eval/chain_builds");
  for (const auto& c : cases) {
    for (const auto* lane_seeds : {&three, &one}) {
      for (const std::size_t max_segments :
           {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
        EvalOptions opts;
        opts.max_segments = max_segments;
        opts.architecture = c.id;
        const Evaluator serial(w.tech, &w.dataset, &w.detector, opts);
        const auto oracle = serial.evaluate_lanes(c.design, *lane_seeds);
        ASSERT_EQ(oracle.size(), lane_seeds->size()) << c.id;
        const std::size_t groups =
            c.one_lane_groups ? lane_seeds->size() : std::size_t{1};
        for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
          const auto before = builds.value();
          // Run on the pool: the evaluation fans out over the pool it
          // runs on.
          std::vector<EvalMetrics> got;
          pool->parallel_for(1, [&](std::size_t) {
            got = serial.evaluate_lanes(c.design, *lane_seeds);
          });
          // Each group's chain free-list holds at most one chain per
          // executor: the pool's workers plus the calling thread.
          EXPECT_LE(builds.value() - before, groups * (pool->size() + 1))
              << c.id;
          ASSERT_EQ(got.size(), oracle.size());
          for (std::size_t k = 0; k < got.size(); ++k) {
            expect_bitwise_equal(
                got[k], oracle[k],
                std::string(c.id) + " K=" + std::to_string(got.size()) +
                    " max_segments=" + std::to_string(max_segments) +
                    " pool=" + std::to_string(pool->size()) + " lane " +
                    std::to_string(k));
          }
        }
      }
    }
  }
}

TEST(PooledLanes, MonteCarloInvariantOverThreadsAndLanes) {
  const auto& w = pool_world();
  EvalOptions opts;
  opts.max_segments = 3;
  const Evaluator eval(w.tech, &w.dataset, &w.detector, opts);
  const auto design = pooled_design(75, power::CsStyle::PassiveCharge);
  MonteCarloOptions base;
  base.instances = 5;  // partial trailing group at lanes 2 and 8
  base.min_accuracy = 0.5;
  base.vary_noise_streams = true;
  base.threads = 1;
  base.lanes = 1;
  const auto oracle = monte_carlo(eval, design, base);
  ASSERT_EQ(oracle.instances.size(), 5u);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      MonteCarloOptions mc = base;
      mc.threads = threads;
      mc.lanes = lanes;
      const auto got = monte_carlo(eval, design, mc);
      const std::string where = "threads=" + std::to_string(threads) +
                                " lanes=" + std::to_string(lanes);
      ASSERT_EQ(got.instances.size(), oracle.instances.size()) << where;
      for (std::size_t i = 0; i < got.instances.size(); ++i) {
        expect_bitwise_equal(got.instances[i], oracle.instances[i],
                             where + " instance " + std::to_string(i));
      }
      EXPECT_EQ(bits(got.yield), bits(oracle.yield)) << where;
      EXPECT_EQ(bits(got.snr_db.mean), bits(oracle.snr_db.mean)) << where;
    }
  }
}

// evaluate() of the architecture without a batched model (cs_active) and
// the one with signal-dependent power (lc_adc), pinned bit for bit. The
// values were recorded from a serial segment loop on one scalar chain, so
// they hold the one-lane-group schedule to it; LC-ADC power must be read
// per segment right after that segment's run and averaged in segment
// order to match.
TEST(EvaluateGolden, RoutedArchitecturesMatchPinnedBits) {
  const auto& w = pool_world();
  power::DesignParams noisy_active =
      pooled_design(150, power::CsStyle::ActiveIntegrator);
  noisy_active.lna_noise_vrms = 20e-6;
  power::DesignParams coarse_lc = pooled_design(0, power::CsStyle::PassiveCharge);
  coarse_lc.adc_bits = 5;
  coarse_lc.lna_noise_vrms = 20e-6;
  ChainSeeds drawn;
  drawn.mismatch = derive_seed(0xFAB, 6);
  drawn.noise = derive_seed(0xFAB, 7);
  const struct {
    const char* id;
    power::DesignParams design;
    ChainSeeds seeds;
    std::uint64_t snr, accuracy, power, area;
  } cases[] = {
      {"cs_active", pooled_design(75, power::CsStyle::ActiveIntegrator), {},
       0x40224fae3279f861, 0x3ff0000000000000, 0x3ec1ed3f031e83b5,
       0x40f26f2000000000},
      {"cs_active", noisy_active, drawn, 0x4019c9db452b95d0,
       0x3fee79e79e79e79e, 0x3ec7d7071a272a92, 0x41025f5000000000},
      {"lc_adc", pooled_design(0, power::CsStyle::PassiveCharge), {},
       0x40354d0b9f9e5298, 0x3ff0000000000000, 0x3edcdd3f1025b681,
       0x4070000000000000},
      {"lc_adc", coarse_lc, drawn, 0x401129ae09099ea7, 0x3fef3cf3cf3cf3cf,
       0x3ea47184b7739106, 0x4040000000000000},
  };
  for (const auto& c : cases) {
    EvalOptions opts;
    opts.architecture = c.id;
    opts.seeds = c.seeds;
    const Evaluator eval(w.tech, &w.dataset, &w.detector, opts);
    const auto m = eval.evaluate(c.design);
    EXPECT_EQ(m.segments_evaluated, w.dataset.segments.size()) << c.id;
    EXPECT_EQ(bits(m.snr_db), c.snr) << c.id;
    EXPECT_EQ(bits(m.accuracy), c.accuracy) << c.id;
    EXPECT_EQ(bits(m.power_w), c.power) << c.id;
    EXPECT_EQ(bits(m.area_unit_caps), c.area) << c.id;
  }
}
