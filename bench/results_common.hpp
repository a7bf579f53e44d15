#pragma once
// Shared helper for the figure benches: next to the console tables, each
// bench drops a machine-readable CSV under results/ so the figures can be
// re-plotted without re-running the sweep, and an obs::BenchRun declared at
// the top of main() writes the results/<name>_obs.json run-metadata sidecar
// (duration, points/s, cache hits, hottest blocks) on exit.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace efficsense::bench {

/// Open results/<name> for writing (creating the directory if needed).
inline std::ofstream open_results(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  std::ofstream out("results/" + name, std::ios::trunc);
  if (out) {
    std::cout << "[writing results/" << name << "]\n";
  }
  return out;
}

/// JSON object summarizing the reconstruction-kernel instruments at the
/// moment of the call: OMP solve/gram-build counts and timings plus the
/// reconstructor-cache hit/miss counters. Embedded verbatim in the
/// checked-in BENCH_*.json trajectory files so successive PRs can compare
/// kernel-level numbers, not just end-to-end wall clock.
inline std::string omp_instruments_json() {
  const auto count = [](const char* name) {
    return obs::counter(name).value();
  };
  const auto& solve = obs::histogram("time/omp_solve");
  const auto& gram = obs::histogram("time/omp_gram_build");
  const auto& block = obs::histogram("time/block_run");
  // Percentiles in microseconds from the fixed-bucket estimator
  // (Histogram::percentile) so trajectory files track tails, not just means.
  const auto pct_us = [](const obs::Histogram& h, double q) {
    return h.count() > 0 ? h.percentile(q) * 1e6 : 0.0;
  };
  std::ostringstream os;
  os.precision(6);
  os << "{\"solves\": " << count("omp/solves")
     << ", \"gram_builds\": " << count("omp/gram_builds")
     << ", \"cache_hits\": " << count("omp/cache_hits")
     << ", \"cache_misses\": " << count("omp/cache_misses")
     << ", \"solve_us_mean\": "
     << (solve.count() > 0 ? solve.mean() * 1e6 : 0.0)
     << ", \"solve_us_p50\": " << pct_us(solve, 0.50)
     << ", \"solve_us_p90\": " << pct_us(solve, 0.90)
     << ", \"solve_us_p99\": " << pct_us(solve, 0.99)
     << ", \"solve_s_total\": " << solve.sum()
     << ", \"gram_build_us_mean\": "
     << (gram.count() > 0 ? gram.mean() * 1e6 : 0.0)
     << ", \"gram_build_s_total\": " << gram.sum()
     << ", \"block_run_us_p50\": " << pct_us(block, 0.50)
     << ", \"block_run_us_p90\": " << pct_us(block, 0.90)
     << ", \"block_run_us_p99\": " << pct_us(block, 0.99) << "}";
  return os.str();
}

#ifndef EFFICSENSE_BUILD_TYPE
#define EFFICSENSE_BUILD_TYPE "unknown"
#endif

/// JSON object fingerprinting the host a BENCH_*.json file was measured on:
/// CPU model, logical CPUs, compiler and build type. Absolute rates are
/// only comparable between files whose fingerprints match.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << obs::json_escape(cpu)
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << obs::json_escape(compiler)
     << "\", \"build_type\": \"" << EFFICSENSE_BUILD_TYPE << "\"}";
  return os.str();
}

}  // namespace efficsense::bench
