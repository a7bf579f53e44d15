#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "arch/recon_cache.hpp"
#include "eeg/generator.hpp"
#include "util/cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace efficsense;

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Report::add(std::vector<Metric>& to, std::string name, double value,
                 std::string unit, std::size_t samples, std::string note) {
  to.push_back({std::move(name), value, std::move(unit), samples,
                std::move(note)});
}

void Report::fact(std::string key, std::string value) {
  facts.emplace_back(std::move(key), std::move(value));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * double(v.size()));
  const auto idx = std::size_t(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double tail(std::vector<double> v, std::string* label) {
  static const std::pair<double, const char*> kLadder[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  for (const auto& [q, name] : kLadder) {
    if (double(v.size()) * (1.0 - q) >= 10.0) {
      if (label) *label = name;
      return quantile(std::move(v), q);
    }
  }
  if (label) *label = "max";
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

ObsSnap ObsSnap::take() {
  return {obs::Registry::instance().snapshot(), Rng::bulk_fill_count()};
}

std::uint64_t ObsSnap::counter(const std::string& name) const {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

const obs::Histogram::Snapshot* ObsSnap::histogram(
    const std::string& name) const {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::uint64_t counter_delta(const ObsSnap& a, const ObsSnap& b,
                            const std::string& name) {
  return b.counter(name) - a.counter(name);
}

double hist_sum_delta(const ObsSnap& a, const ObsSnap& b,
                      const std::string& name) {
  const auto* hb = b.histogram(name);
  if (hb == nullptr) return 0.0;
  const auto* ha = a.histogram(name);
  return hb->sum - (ha ? ha->sum : 0.0);
}

std::uint64_t hist_count_delta(const ObsSnap& a, const ObsSnap& b,
                               const std::string& name) {
  const auto* hb = b.histogram(name);
  if (hb == nullptr) return 0;
  const auto* ha = a.histogram(name);
  return hb->count - (ha ? ha->count : 0);
}

double hist_quantile_delta(const ObsSnap& a, const ObsSnap& b,
                           const std::string& name, double q) {
  const auto* hb = b.histogram(name);
  if (hb == nullptr) return 0.0;
  obs::Histogram::Snapshot d = *hb;
  if (const auto* ha = a.histogram(name)) {
    for (std::size_t i = 0; i < d.buckets.size() && i < ha->buckets.size();
         ++i) {
      d.buckets[i] -= ha->buckets[i];
    }
    d.count -= ha->count;
    d.sum -= ha->sum;
  }
  return obs::Histogram::snapshot_percentile(d, q);
}

std::size_t executors() {
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(n, 4);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv_bits(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv_u64(h, bits);
}

namespace {

std::string metrics_row(const core::EvalMetrics& m) {
  core::SweepResult r;
  r.metrics = m;
  return core::sweep_result_to_row(r);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::uint64_t metrics_digest(std::uint64_t h, const core::EvalMetrics& m) {
  for (const char c : metrics_row(m)) h = fnv_u64(h, std::uint8_t(c));
  return h;
}

bool same_bits(const core::EvalMetrics& a, const core::EvalMetrics& b) {
  return metrics_row(a) == metrics_row(b);
}

std::uint64_t results_digest(const std::vector<core::SweepResult>& r) {
  return fnv1a(core::sweep_to_csv(r));
}

void fingerprint(Report& r, std::size_t pool_threads, std::size_t lanes) {
  r.fact("host.cpu", cpu_model());
  r.fact("host.nproc", std::to_string(std::thread::hardware_concurrency()));
  r.fact("host.compiler", PERFBENCH_COMPILER);
  r.fact("host.build_type", PERFBENCH_BUILD_TYPE);
  r.fact("config.pool_threads", std::to_string(pool_threads));
  r.fact("config.lanes", std::to_string(lanes));
  r.fact("config.recon_cache_capacity",
         std::to_string(arch::ReconstructorCache::instance().capacity()));
}

std::unique_ptr<Bed> make_bed(const BedConfig& config, std::size_t threads) {
  auto bed = std::make_unique<Bed>();
  // The Study's recipe (core/study.cpp): 2048 Hz synthesis, 23.6 s
  // segments, eval and training sets on derived seeds.
  const eeg::Generator generator{eeg::GeneratorConfig{}};
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  eeg::Dataset train_set;
  {
    const auto t0 = Clock::now();
    Span span(PB_SPAN_NAME("eeg.synth"));
    const std::size_t n = config.eval_segments;
    bed->dataset = eeg::make_dataset(generator, n / 2, n - n / 2,
                                     derive_seed(config.seed, 0xEA1),
                                     pool.get());
    const std::size_t t = config.train_segments;
    train_set = eeg::make_dataset(generator, t / 2, t - t / 2,
                                  derive_seed(config.seed, 0xDE7), pool.get());
    bed->synth_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  {
    const auto t0 = Clock::now();
    Span span(PB_SPAN_NAME("classify.train"));
    bed->detector = classify::EpilepsyDetector::train(train_set, config.detector);
    bed->train_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  bed->evaluator = std::make_unique<core::Evaluator>(
      power::TechnologyParams{}, &bed->dataset, &*bed->detector, config.eval);
  return bed;
}

}  // namespace perfbench
