// google-benchmark coverage of the vectorized block-sim hot path.
//
// Micro: bulk RNG fills (fill_gaussian in both modes, fill_uniform) against
// the per-sample scalar loops they replaced.
// Macro: whole-model runs/s of the Fig. 1a (baseline) and Fig. 1b (CS)
// chains through Model::run() (the K=1 executor: cached schedule + arena).
//
// Owns its main() so the obs sidecar captures real counters; writes the
// BENCH_blocksim.json trajectory file at the working directory root,
// including a seed-pinned golden checksum of the Box-Muller stream that CI
// asserts against (bit-exactness canary).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <iostream>
#include <string>
#include <vector>

#include "arch/chain.hpp"
#include "eeg/generator.hpp"
#include "obs/obs.hpp"
#include "power/tech.hpp"
#include "util/rng.hpp"

using namespace efficsense;

namespace {

constexpr std::size_t kFillN = 4096;

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

/// One synthesized EEG segment shared by every macro benchmark.
const sim::Waveform& bench_segment() {
  static const sim::Waveform seg = [] {
    eeg::Generator gen{eeg::GeneratorConfig{}};
    return gen.normal(4242);
  }();
  return seg;
}

std::unique_ptr<sim::Model> bench_chain(bool cs) {
  power::TechnologyParams tech;
  power::DesignParams design;
  if (!cs) return arch::build_baseline_chain(tech, design, {});
  design.cs_m = 75;
  design.cs_c_hold_f = 1e-12;
  return arch::build_cs_chain(tech, design, {});
}

void chain_bench(benchmark::State& state, bool cs) {
  auto chain = bench_chain(cs);
  const sim::Waveform& seg = bench_segment();
  for (auto _ : state) {
    auto out = arch::run_chain(*chain, seg);
    benchmark::DoNotOptimize(out.samples.data());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

// ---------------------------------------------------------------------------
// Micro: RNG fills.

static void BM_ScalarGaussian(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> buf(kFillN);
  for (auto _ : state) {
    for (auto& v : buf) v = rng.gaussian();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFillN));
}
BENCHMARK(BM_ScalarGaussian);

static void BM_FillGaussianBoxMuller(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> buf(kFillN);
  for (auto _ : state) {
    rng.fill_gaussian(buf.data(), buf.size(), GaussMode::BoxMuller);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFillN));
}
BENCHMARK(BM_FillGaussianBoxMuller);

static void BM_FillGaussianZiggurat(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> buf(kFillN);
  for (auto _ : state) {
    rng.fill_gaussian(buf.data(), buf.size(), GaussMode::Ziggurat);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFillN));
}
BENCHMARK(BM_FillGaussianZiggurat);

static void BM_ScalarUniform(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> buf(kFillN);
  for (auto _ : state) {
    for (auto& v : buf) v = rng.uniform();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFillN));
}
BENCHMARK(BM_ScalarUniform);

static void BM_FillUniform(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> buf(kFillN);
  for (auto _ : state) {
    rng.fill_uniform(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFillN));
}
BENCHMARK(BM_FillUniform);

// ---------------------------------------------------------------------------
// Micro: lane_layout — the LaneBank storage decision (DESIGN.md §12).
// Both benchmarks run the same per-lane gain+offset kernel (the shape of
// every per-lane block loop) over K lanes; lane-major walks each lane's
// contiguous row, sample-major strides by K. LaneBank is lane-major because
// the per-lane fallback and every bit-exactness-critical kernel traverse
// one lane at a time; the cross-lane SIMD kernels that prefer [sample][lane]
// build their own transposed scratch instead (e.g. OMP's alpha0 pass).

namespace {
constexpr std::size_t kLayoutLanes = 8;
constexpr std::size_t kLayoutSamples = 32768;
}  // namespace

static void BM_LaneLayoutLaneMajor(benchmark::State& state) {
  std::vector<double> x(kLayoutLanes * kLayoutSamples, 1.5);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    for (std::size_t k = 0; k < kLayoutLanes; ++k) {
      const double gain = 1.0 + 1e-3 * static_cast<double>(k);
      const double* xr = x.data() + k * kLayoutSamples;
      double* yr = y.data() + k * kLayoutSamples;
      for (std::size_t i = 0; i < kLayoutSamples; ++i) {
        yr[i] = gain * xr[i] + 1e-6;
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_LaneLayoutLaneMajor);

static void BM_LaneLayoutSampleMajor(benchmark::State& state) {
  std::vector<double> x(kLayoutLanes * kLayoutSamples, 1.5);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    for (std::size_t k = 0; k < kLayoutLanes; ++k) {
      const double gain = 1.0 + 1e-3 * static_cast<double>(k);
      const double* xr = x.data() + k;
      double* yr = y.data() + k;
      for (std::size_t i = 0; i < kLayoutSamples; ++i) {
        yr[i * kLayoutLanes] = gain * xr[i * kLayoutLanes] + 1e-6;
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_LaneLayoutSampleMajor);

// ---------------------------------------------------------------------------
// Macro: whole-chain runs/s.

static void BM_BaselineChainCached(benchmark::State& state) {
  chain_bench(state, /*cs=*/false);
}
BENCHMARK(BM_BaselineChainCached)->Unit(benchmark::kMillisecond);

static void BM_CsChainCached(benchmark::State& state) {
  chain_bench(state, /*cs=*/true);
}
BENCHMARK(BM_CsChainCached)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Reporting.

namespace {

class BlocksimReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<std::pair<std::string, double>> timings;  // ns / iteration

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const double iters =
          r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      timings.emplace_back(r.benchmark_name(),
                           r.real_accumulated_time / iters * 1e9);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

double lookup_ns(const std::vector<std::pair<std::string, double>>& timings,
                 const std::string& name) {
  for (const auto& [n, ns] : timings) {
    if (n == name) return ns;
  }
  return 0.0;
}

/// Median per-run seconds of a chain over `runs` runs, after a warm-up.
/// The median keeps a multi-ms run time robust to host noise.
double median_run_s(bool cs, std::size_t runs) {
  using clock = std::chrono::steady_clock;
  auto chain = bench_chain(cs);
  const sim::Waveform& seg = bench_segment();
  for (std::size_t i = 0; i < 5; ++i) arch::run_chain(*chain, seg);
  std::vector<double> seconds(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    const auto a = clock::now();
    auto out = arch::run_chain(*chain, seg);
    seconds[i] = std::chrono::duration<double>(clock::now() - a).count();
    benchmark::DoNotOptimize(out.samples.data());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

std::string golden_gauss_checksum() {
  Rng rng(12345);
  std::vector<double> g(1000);
  rng.fill_gaussian(g.data(), g.size(), GaussMode::BoxMuller);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(fnv1a_doubles(g)));
  return buf;
}

void write_bench_blocksim_json(
    const std::vector<std::pair<std::string, double>>& timings,
    double baseline_s, double cs_s) {
  std::ofstream out("BENCH_blocksim.json", std::ios::trunc);
  if (!out) {
    std::cerr << "[bench_blocksim] cannot write BENCH_blocksim.json\n";
    return;
  }
  out.precision(6);
  out << "{\n  \"bench\": \"bench_blocksim\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << "    {\"name\": \"" << obs::json_escape(timings[i].first)
        << "\", \"ns_per_iter\": " << timings[i].second << "}"
        << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  const auto ratio = [&](const std::string& slow, const std::string& fast) {
    const double f = lookup_ns(timings, fast);
    return f > 0.0 ? lookup_ns(timings, slow) / f : 0.0;
  };
  const auto per_s = [](double s) { return s > 0.0 ? 1.0 / s : 0.0; };
  out << "  ],\n  \"speedups\": {\n"
      << "    \"fill_gaussian_boxmuller_vs_scalar\": "
      << ratio("BM_ScalarGaussian", "BM_FillGaussianBoxMuller") << ",\n"
      << "    \"fill_gaussian_ziggurat_vs_scalar\": "
      << ratio("BM_ScalarGaussian", "BM_FillGaussianZiggurat") << ",\n"
      << "    \"fill_uniform_vs_scalar\": "
      << ratio("BM_ScalarUniform", "BM_FillUniform") << ",\n"
      << "    \"lane_layout_lane_major_vs_sample_major\": "
      << ratio("BM_LaneLayoutSampleMajor", "BM_LaneLayoutLaneMajor") << "\n"
      << "  },\n  \"model_runs_per_s\": {\n"
      << "    \"baseline_cached\": " << per_s(baseline_s) << ",\n"
      << "    \"cs_cached\": " << per_s(cs_s) << "\n"
      << "  },\n  \"golden\": {\"gauss_1000_seed12345_boxmuller\": \""
      << golden_gauss_checksum() << "\"},\n";
  const auto& block = obs::histogram("time/block_run");
  const auto pct_us = [&block](double q) {
    return block.count() > 0 ? block.percentile(q) * 1e6 : 0.0;
  };
  out << "  \"block_run_latency\": {\n"
      << "    \"count\": " << block.count() << ",\n"
      << "    \"us_mean\": "
      << (block.count() > 0 ? block.mean() * 1e6 : 0.0) << ",\n"
      << "    \"us_p50\": " << pct_us(0.50) << ",\n"
      << "    \"us_p90\": " << pct_us(0.90) << ",\n"
      << "    \"us_p99\": " << pct_us(0.99) << "\n"
      << "  },\n"
      << "  \"counters\": {\n"
      << "    \"rng_bulk_fills\": " << Rng::bulk_fill_count() << ",\n"
      << "    \"sim_schedule_cache_hits\": "
      << obs::counter("sim/schedule_cache_hits").value() << ",\n"
      << "    \"sim_schedule_cache_misses\": "
      << obs::counter("sim/schedule_cache_misses").value() << "\n"
      << "  }\n}\n";
  std::cout << "[writing BENCH_blocksim.json]\n";
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchRun obs_run("bench_blocksim");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BlocksimReporter reporter;
  {
    EFFICSENSE_SPAN("bench_blocksim/run");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();

  const double baseline_s = median_run_s(/*cs=*/false, /*runs=*/60);
  const double cs_s = median_run_s(/*cs=*/true, /*runs=*/60);
  std::cout << "median run: baseline chain " << baseline_s * 1e3
            << " ms, cs chain " << cs_s * 1e3 << " ms\n";

  obs_run.set_points(reporter.timings.size());
  const double scalar = lookup_ns(reporter.timings, "BM_ScalarGaussian");
  const double zig = lookup_ns(reporter.timings, "BM_FillGaussianZiggurat");
  if (zig > 0.0) obs_run.add_field("fill_gaussian_ziggurat_vs_scalar", scalar / zig);
  write_bench_blocksim_json(reporter.timings, baseline_s, cs_s);
  return 0;
}
