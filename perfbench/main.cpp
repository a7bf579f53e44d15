// perfbench — one benchmark program for the EffiCSense pathfinding
// instrument. Runs one named workload from generated inputs, checks its
// outputs and prints a table followed, as the last line of stdout, by one
// JSON object {"correct", "attempted", "failed", "metrics"}:
//
//   perfbench --workload <paper_sweep|solver_sweep|mc_yield|gateway_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <spans.jsonl>] [--tamper]
//
// --smoke shrinks every input for the benchmark's own tests; --tamper
// corrupts one output before the checks, so the tests can see the gate
// refuse it.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics from spans recorded around calls into the library. A failed
// correctness check prints the failures to stderr, no result line, and
// exits 1. Run it from an empty scratch directory: the sweeps journal into
// ./journals and the gateway listens on a socket in the current directory.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

void usage() {
  std::cerr << "usage: perfbench --workload <paper_sweep|solver_sweep|"
               "mc_yield|gateway_stream>\n"
               "                 --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--smoke] [--trace-out <path>] [--tamper]\n";
}

/// Pin the library's environment knobs: nothing the caller's shell sets may
/// change what a workload runs.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("EFFICSENSE_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
  setenv("EFFICSENSE_FSYNC", "group", 1);  // group-commit journals
  setenv("EFFICSENSE_STATUS", "off", 1);   // no status.json heartbeat thread
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_table(const Report& r, const std::vector<Metric>& metrics) {
  std::printf("workload %s\n", r.workload.c_str());
  for (const auto& [k, v] : r.facts) std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  std::printf("  %-32s %16s %-8s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const auto* list : {&metrics, &r.info}) {
    for (const auto& m : *list) {
      std::printf("  %-32s %16.6g %-8s %8zu  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }
  std::printf("  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

void print_result(const Report& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + json_escape(metrics[i].name) +
           "\": {\"value\": " + num + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.seed = kDefaultSeed;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      usage();
      return 2;
    }
  }
  if (opt.workload.empty() || !have_trace) {
    usage();
    return 2;
  }
  pin_environment();

  Report report;
  try {
    if (opt.workload == "paper_sweep") {
      report = run_paper_sweep(opt);
    } else if (opt.workload == "solver_sweep") {
      report = run_solver_sweep(opt);
    } else if (opt.workload == "mc_yield") {
      report = run_mc_yield(opt);
    } else if (opt.workload == "gateway_stream") {
      report = run_gateway_stream(opt);
    } else {
      std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const auto& metrics = opt.trace ? report.layer : report.e2e;
  print_table(report, metrics);
  if (!report.correct()) {
    for (const auto& f : report.failures) {
      std::cerr << "perfbench: CHECK FAILED: " << f << "\n";
    }
    return 1;
  }
  print_result(report, metrics);
  return 0;
}
