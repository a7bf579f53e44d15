// The vectorized block-sim hot path: bulk RNG fills (Box-Muller oracle and
// Ziggurat), seed-pinned golden checksums proving the refactor is
// bit-identical, schedule caching, run_stats accounting and the waveform
// arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "arch/chain.hpp"
#include "blocks/basic.hpp"
#include "blocks/sources.hpp"
#include "eeg/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/arena.hpp"
#include "sim/model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace efficsense;

namespace {

/// FNV-1a over the raw bit patterns of each double, LSB first. Any change
/// to any bit of any sample changes the hash.
std::uint64_t fnv1a_doubles(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

}  // namespace

// ---------------------------------------------------------------------------
// Bulk fill equivalence: the Box-Muller fill is the scalar path, verbatim.

TEST(RngBulk, FillUniformMatchesScalar) {
  Rng a(123), b(123);
  std::vector<double> bulk(1001);
  a.fill_uniform(bulk.data(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(bulk[i], b.uniform()) << "at " << i;
  }
}

TEST(RngBulk, FillGaussianBoxMullerMatchesScalarEvenAndOdd) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{1000}, std::size_t{1001}}) {
    Rng a(77), b(77);
    std::vector<double> bulk(n);
    a.fill_gaussian(bulk.data(), n, GaussMode::BoxMuller);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bulk[i], b.gaussian()) << "n=" << n << " at " << i;
    }
  }
}

TEST(RngBulk, FillGaussianCarriesCachedVariateAcrossCalls) {
  // An odd-length fill leaves a cached second variate behind; the next
  // fill (or scalar call) must consume it exactly as the scalar path does.
  Rng a(5), b(5);
  std::vector<double> first(3), second(4);
  a.fill_gaussian(first.data(), first.size(), GaussMode::BoxMuller);
  a.fill_gaussian(second.data(), second.size(), GaussMode::BoxMuller);
  for (double v : first) EXPECT_EQ(v, b.gaussian());
  for (double v : second) EXPECT_EQ(v, b.gaussian());
  EXPECT_EQ(a.gaussian(), b.gaussian());

  // And the other direction: a scalar call that seeds the cache, then a fill.
  Rng c(6), d(6);
  EXPECT_EQ(c.gaussian(), d.gaussian());
  std::vector<double> bulk(5);
  c.fill_gaussian(bulk.data(), bulk.size(), GaussMode::BoxMuller);
  for (double v : bulk) EXPECT_EQ(v, d.gaussian());
}

TEST(RngBulk, BulkFillCountIncreases) {
  const std::uint64_t before = Rng::bulk_fill_count();
  Rng rng(1);
  std::vector<double> buf(16);
  rng.fill_gaussian(buf.data(), buf.size());
  rng.fill_uniform(buf.data(), buf.size());
  EXPECT_GE(Rng::bulk_fill_count(), before + 2);
}

// ---------------------------------------------------------------------------
// split() determinism: the child stream must not depend on how many
// gaussian() calls (and thus cached variates) preceded the split.

TEST(RngSplit, IndependentOfPrecedingGaussianCallCount) {
  Rng a(42), b(42), c(42);
  (void)b.gaussian();  // seeds b's Box-Muller cache
  for (int i = 0; i < 7; ++i) (void)c.gaussian();

  Rng sa = a.split(9), sb = b.split(9), sc = c.split(9);
  for (int i = 0; i < 64; ++i) {
    const double va = sa.gaussian();
    EXPECT_EQ(va, sb.gaussian());
    EXPECT_EQ(va, sc.gaussian());
  }
}

// ---------------------------------------------------------------------------
// Ziggurat: not bit-compatible, but must be the same distribution.

TEST(RngZiggurat, MomentsMatchStandardNormal) {
  Rng rng(2024);
  const std::size_t n = 200000;
  std::vector<double> x(n);
  rng.fill_gaussian(x.data(), n, GaussMode::Ziggurat);
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0;
  std::size_t tail = 0;
  for (double v : x) {
    sum += v;
    sum2 += v * v;
    sum3 += v * v * v;
    if (std::abs(v) > 3.0) ++tail;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum2 / static_cast<double>(n) - mean * mean;
  const double skew = sum3 / static_cast<double>(n);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(skew, 0.0, 0.05);
  // P(|X| > 3) = 0.0027: the tail machinery must actually fire.
  const double tail_frac = static_cast<double>(tail) / static_cast<double>(n);
  EXPECT_NEAR(tail_frac, 0.0027, 0.0010);
}

TEST(RngZiggurat, KolmogorovSmirnovAgainstNormalCdf) {
  Rng rng(31337);
  const std::size_t n = 100000;
  std::vector<double> x(n);
  rng.fill_gaussian(x.data(), n, GaussMode::Ziggurat);
  std::sort(x.begin(), x.end());
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = phi(x[i]);
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(n);
    d = std::max(d, std::max(f - lo, hi - f));
  }
  // K-S critical value at alpha = 0.001 is 1.95 / sqrt(n); the draw is
  // seed-pinned so this is a deterministic regression bound, not a flake.
  EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95);
}

TEST(RngZiggurat, DeterministicForSameSeed) {
  Rng a(9), b(9);
  std::vector<double> xa(257), xb(257);
  a.fill_gaussian(xa.data(), xa.size(), GaussMode::Ziggurat);
  b.fill_gaussian(xb.data(), xb.size(), GaussMode::Ziggurat);
  EXPECT_EQ(xa, xb);
}

// ---------------------------------------------------------------------------
// Seed-pinned golden checksums captured on the scalar implementation before
// the vectorization refactor. These prove the hot path is bit-identical in
// the default Box-Muller mode. If you change them on purpose, update the
// pinned values here AND in the CI bench-smoke golden assert.

TEST(Golden, ScalarGaussianStream) {
  Rng rng(12345);
  std::vector<double> g(1000);
  for (auto& v : g) v = rng.gaussian();
  EXPECT_EQ(fnv1a_doubles(g), 0x9B5BA0D57BD09D07ULL);
}

TEST(Golden, BulkBoxMullerStreamMatchesScalarChecksum) {
  Rng rng(12345);
  std::vector<double> g(1000);
  rng.fill_gaussian(g.data(), g.size(), GaussMode::BoxMuller);
  EXPECT_EQ(fnv1a_doubles(g), 0x9B5BA0D57BD09D07ULL);
}

TEST(Golden, EegGeneratorSegments) {
  if (global_gauss_mode() != GaussMode::BoxMuller) {
    GTEST_SKIP() << "goldens are pinned to the Box-Muller reference mode";
  }
  eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto normal = gen.normal(777);
  EXPECT_EQ(fnv1a_doubles(normal.samples), 0x33B5024921F9EBC4ULL);
  const auto seizure = gen.seizure(778, nullptr);
  EXPECT_EQ(fnv1a_doubles(seizure.samples), 0x44482D751FC46D20ULL);
}

TEST(Golden, BaselineAndCsChainOutputs) {
  if (global_gauss_mode() != GaussMode::BoxMuller) {
    GTEST_SKIP() << "goldens are pinned to the Box-Muller reference mode";
  }
  eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto seg = gen.normal(4242);
  power::TechnologyParams tech;

  power::DesignParams base;
  auto chain = arch::build_baseline_chain(tech, base, {});
  const auto out1 = arch::run_chain(*chain, seg);
  EXPECT_EQ(fnv1a_doubles(out1.samples), 0x844901B7FF67731AULL);
  const auto out2 = arch::run_chain(*chain, seg);  // fresh noise streams
  EXPECT_EQ(fnv1a_doubles(out2.samples), 0xC8AB50B97239C0DBULL);

  power::DesignParams cs;
  cs.cs_m = 75;
  cs.cs_c_hold_f = 1e-12;
  auto cs_chain = arch::build_cs_chain(tech, cs, {});
  const auto cs_out = arch::run_chain(*cs_chain, seg);
  EXPECT_EQ(fnv1a_doubles(cs_out.samples), 0xE7797B0B7D59D2BCULL);
}

// ---------------------------------------------------------------------------
// The cached executor: schedule reuse, recycled buffers, probes and
// run_stats accounting.

namespace {

/// A model with stochastic and deterministic blocks exercising the arena.
sim::Waveform make_ramp(std::size_t n) {
  sim::Waveform w;
  w.fs = 1000.0;
  w.samples.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.samples[i] = static_cast<double>(i) * 1e-3;
  }
  return w;
}

std::unique_ptr<sim::Model> make_noisy_model() {
  auto m = std::make_unique<sim::Model>();
  auto& src = m->emplace<blocks::WaveformSource>("src", make_ramp(512));
  auto& noise = m->emplace<blocks::NoiseAdderBlock>("noise", 0.1, 99);
  auto& gain = m->emplace<blocks::GainBlock>("gain", 2.0);
  (void)src;
  (void)noise;
  (void)gain;
  m->connect("src", "noise");
  m->connect("noise", "gain");
  return m;
}

}  // namespace

TEST(ModelHotPath, ScheduleCacheHitsOnRepeatedRuns) {
  auto& hits = obs::counter("sim/schedule_cache_hits");
  auto& misses = obs::counter("sim/schedule_cache_misses");
  const auto h0 = hits.value();
  const auto m0 = misses.value();

  auto m = make_noisy_model();
  m->run();
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(hits.value(), h0);
  m->run();
  m->run();
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(hits.value(), h0 + 2);

  // Re-wiring invalidates the plan.
  m->emplace<blocks::GainBlock>("post", 0.5);
  m->connect("gain", "post");
  m->run();
  EXPECT_EQ(misses.value(), m0 + 2);
}

TEST(ModelHotPath, ArenaRecyclesBuffersBetweenRuns) {
  auto m = make_noisy_model();
  m->run();
  const auto fresh_after_first = m->arena().fresh_allocs();
  m->run();
  m->run();
  // Steady state: every per-run buffer is served from the pool.
  EXPECT_EQ(m->arena().fresh_allocs(), fresh_after_first);
  EXPECT_GT(m->arena().reuses(), 0u);
}

TEST(ModelHotPath, ArenaPoolStaysBoundedWithProcessOnlyBlocks) {
  // The model's GainBlock only overrides process(); its output still goes
  // through arena storage, so the pool does not grow run over run.
  auto m = make_noisy_model();
  m->run();
  m->run();
  const auto pooled = m->arena().pooled_buffers();
  for (int i = 0; i < 5; ++i) m->run();
  EXPECT_EQ(m->arena().pooled_buffers(), pooled);
}

TEST(ModelHotPath, ProbeSurvivesRewiringAndReset) {
  auto m = make_noisy_model();
  m->run();
  const auto before = m->probe("noise").samples;
  EXPECT_FALSE(before.empty());

  // Adding a downstream block must not invalidate earlier probes' slots.
  m->emplace<blocks::GainBlock>("post", 0.5);
  m->connect("gain", "post");
  m->run();
  EXPECT_EQ(m->probe("noise").samples.size(), before.size());

  m->reset();
  EXPECT_THROW((void)m->probe("noise"), Error);
}

TEST(ModelHotPath, RunStatsAccumulateAcrossCachedRuns) {
  auto m = make_noisy_model();
  m->run();
  m->run();
  m->run();
  const auto& stats = m->run_stats();
  EXPECT_EQ(stats.runs, 3u);
  ASSERT_EQ(stats.blocks.size(), 3u);
  for (const auto& b : stats.blocks) {
    EXPECT_EQ(b.runs, 3u);
    EXPECT_EQ(b.samples_out, 3u * 512u);
    EXPECT_GE(b.seconds, 0.0);
  }

  // reset() clears block state but not the accounting; re-wiring extends it.
  m->reset();
  m->emplace<blocks::GainBlock>("post", 0.5);
  m->connect("gain", "post");
  m->run();
  const auto& stats2 = m->run_stats();
  EXPECT_EQ(stats2.runs, 4u);
  ASSERT_EQ(stats2.blocks.size(), 4u);
  EXPECT_EQ(stats2.blocks[0].runs, 4u);
  EXPECT_EQ(stats2.blocks[3].runs, 1u);  // the late-added block

  // Per-block time shares can never exceed the total.
  double block_seconds = 0.0;
  for (const auto& b : stats2.blocks) block_seconds += b.seconds;
  EXPECT_LE(block_seconds, stats2.total_seconds + 1e-9);

  // to_string renders every block that ran, with shares.
  const std::string s = stats2.to_string();
  EXPECT_NE(s.find("src"), std::string::npos);
  EXPECT_NE(s.find("noise"), std::string::npos);
  EXPECT_NE(s.find("post"), std::string::npos);
  EXPECT_NE(s.find("runs: 4"), std::string::npos);

  m->reset_run_stats();
  EXPECT_EQ(m->run_stats().runs, 0u);
  EXPECT_TRUE(m->run_stats().blocks.empty());
}

// ---------------------------------------------------------------------------
// WaveformArena unit behaviour.

TEST(WaveformArena, ReusesReleasedStorage) {
  sim::WaveformArena arena;
  auto a = arena.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(arena.fresh_allocs(), 1u);
  const double* ptr = a.data();
  arena.release(std::move(a));
  EXPECT_EQ(arena.pooled_buffers(), 1u);

  auto b = arena.acquire(80);  // fits in the pooled capacity
  EXPECT_EQ(b.size(), 80u);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(arena.reuses(), 1u);
  EXPECT_EQ(arena.fresh_allocs(), 1u);
  EXPECT_EQ(arena.pooled_buffers(), 0u);
}

TEST(WaveformArena, PrefersSmallestFittingBuffer) {
  sim::WaveformArena arena;
  auto big = arena.acquire(1000);
  auto small = arena.acquire(64);
  arena.release(std::move(big));
  arena.release(std::move(small));
  ASSERT_EQ(arena.pooled_buffers(), 2u);

  auto got = arena.acquire(50);
  EXPECT_GE(got.capacity(), 50u);
  EXPECT_LT(got.capacity(), 1000u);  // took the small one, kept the big one
  EXPECT_EQ(arena.pooled_capacity(), 1000u);

  // Release and clear accounting.
  arena.release(std::move(got));
  EXPECT_EQ(arena.pooled_buffers(), 2u);
  arena.clear();
  EXPECT_EQ(arena.pooled_buffers(), 0u);
  EXPECT_EQ(arena.pooled_capacity(), 0u);
}

TEST(WaveformArena, ZeroCapacityReleaseIsDropped) {
  sim::WaveformArena arena;
  arena.release(std::vector<double>{});
  EXPECT_EQ(arena.pooled_buffers(), 0u);
}
