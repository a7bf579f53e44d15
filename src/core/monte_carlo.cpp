#include "core/monte_carlo.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efficsense::core {

MetricStats compute_stats(const std::vector<double>& samples) {
  EFF_REQUIRE(!samples.empty(), "no samples to summarize");
  MetricStats s;
  s.min = samples.front();
  s.max = samples.front();
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

MonteCarloResult monte_carlo(
    const Evaluator& evaluator, const power::DesignParams& design,
    const MonteCarloOptions& options,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  EFF_REQUIRE(options.instances >= 1, "need at least one instance");

  // Instances are embarrassingly parallel (each derives its own seeds), so
  // they fan out over a pool; a pool of size 1 falls back to the serial loop.
  const std::size_t requested =
      options.threads != 0
          ? options.threads
          : static_cast<std::size_t>(std::max<std::int64_t>(
                0, env_int("EFFICSENSE_THREADS", 0)));
  std::unique_ptr<ThreadPool> pool;
  if (requested != 1 && options.instances > 1) {
    pool = std::make_unique<ThreadPool>(requested);
    if (pool->size() <= 1) pool.reset();
  }

  MonteCarloResult result;
  result.instances.resize(options.instances);

  auto& instance_hist = obs::histogram("mc/instance_seconds");
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  std::size_t last_reported = 0;  // guarded by progress_mutex

  // Same chain topology, fresh fabrication: only the mismatch seed moves
  // (and the sensing-matrix draw stays fixed — it is programmed, not
  // fabricated).
  const auto seeds_for = [&](std::size_t i) {
    arch::ChainSeeds seeds = evaluator.options().seeds;
    seeds.mismatch = derive_seed(options.seed, 2 * i);
    if (options.vary_noise_streams) {
      seeds.noise = derive_seed(options.seed, 2 * i + 1);
    }
    return seeds;
  };

  // Lane width of the batched SoA engine: groups of K instances go through
  // Evaluator::evaluate_lanes, which runs them in lockstep on a batched
  // chain where the architecture has one and as one-lane groups otherwise,
  // so every architecture runs at any lane width. Width 1 is a group of one.
  const std::size_t lanes_requested =
      options.lanes != 0
          ? options.lanes
          : static_cast<std::size_t>(std::max<std::int64_t>(
                1, env_int("EFFICSENSE_LANES", 8)));
  const std::size_t lane_width = std::min(lanes_requested, options.instances);

  const auto run_group = [&](std::size_t g) {
    const std::size_t first = g * lane_width;
    const std::size_t count =
        std::min(lane_width, options.instances - first);
    std::vector<arch::ChainSeeds> lane_seeds(count);
    for (std::size_t k = 0; k < count; ++k) {
      lane_seeds[k] = seeds_for(first + k);
    }
    EFFICSENSE_SPAN("mc/group");
    const auto start = std::chrono::steady_clock::now();
    // On the pool, the group's segments fan out over it too.
    const auto lane_metrics = evaluator.evaluate_lanes(design, lane_seeds);
    for (std::size_t k = 0; k < count; ++k) {
      result.instances[first + k] = lane_metrics[k];
    }
    obs::counter("mc/instances").inc(count);
    const double amortized =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() /
        static_cast<double>(count);
    for (std::size_t k = 0; k < count; ++k) instance_hist.observe(amortized);
    done.fetch_add(count, std::memory_order_acq_rel);
    if (progress) {
      const std::size_t snapshot = done.load(std::memory_order_acquire);
      std::lock_guard lock(progress_mutex);
      if (snapshot > last_reported) {
        last_reported = snapshot;
        progress(snapshot, options.instances);
      }
    }
  };

  const std::size_t groups = (options.instances + lane_width - 1) / lane_width;
  if (pool) {
    pool->parallel_for(groups, run_group);
  } else {
    for (std::size_t g = 0; g < groups; ++g) run_group(g);
  }

  std::vector<double> snrs, accs;
  snrs.reserve(options.instances);
  accs.reserve(options.instances);
  for (const auto& metrics : result.instances) {
    snrs.push_back(metrics.snr_db);
    accs.push_back(metrics.accuracy);
    if (metrics.accuracy >= options.min_accuracy) result.yield += 1.0;
  }
  result.yield /= static_cast<double>(options.instances);
  result.snr_db = compute_stats(snrs);
  result.accuracy = compute_stats(accs);
  return result;
}

}  // namespace efficsense::core
