// run_sweep — the durable, scenario-driven sweep driver the CI harness
// kills, resumes, shards and merges. It evaluates the design space of a
// declarative scenario spec (arch::ScenarioSpec JSON; the built-in default
// is the CI smoke spec, identical to examples/scenario_ci_smoke.json)
// through run::DurableSweeper, journaling every point, and prints
// machine-checkable lines:
//
//   points_resumed=... points_evaluated=... points_retried=... points_quarantined=...
//   RESULT_DIGEST=<fnv1a64 of the result CSV>
//
// Modes:
//   run_sweep --journal results/ci/sweep.jsonl [--scenario spec.json]
//             [--out sweep.csv] [--timeout <s>] [--point-delay-ms <n>]
//   run_sweep --merge merged.jsonl --inputs s0.jsonl s1.jsonl s2.jsonl
//             [--scenario spec.json] [--out merged.csv]
//   run_sweep --coordinator <spool-dir> [--workers <N>] [--lease-ttl <s>]
//             [--scenario spec.json] [--out merged.csv] [--point-delay-ms n]
//   run_sweep --worker <spool-dir> [--worker-name <name>]
//             [--scenario spec.json] [--point-delay-ms <n>]
//   run_sweep --status <journal-or-spool-dir> [--inputs more...] [--json]
//   run_sweep --list-architectures
//
// The fleet modes implement the work-stealing sweep fabric (see
// run/coordinator.hpp): --coordinator drives leases over a spool directory
// and merges the worker journals when every point is committed;
// --workers N forks N local worker processes (default EFFICSENSE_WORKERS;
// 0 means workers are launched elsewhere, e.g. other hosts on a shared
// filesystem); --worker serves leases until the coordinator writes
// done.json. The merged results are bitwise-identical (RESULT_DIGEST) to a
// serial --journal run of the same scenario.
//
// --status renders the telemetry report for an existing journal (same
// machinery as the sweep_status tool; see run/status_report.hpp). A live
// run also writes a status.json heartbeat next to the journal — see the
// EFFICSENSE_STATUS / EFFICSENSE_STATUS_INTERVAL knobs in run/telemetry.hpp.
//
// Sharding comes from EFFICSENSE_SHARD=i/N; dataset scale from
// EFFICSENSE_SEGMENTS (overriding the spec's "segments") and worker threads
// from EFFICSENSE_THREADS, exactly as in the Study sweeps. A 3-shard run
// merged with --merge is bitwise-identical (same RESULT_DIGEST, same CSV
// bytes) to an unsharded run — CI asserts exactly that, plus that a
// --scenario run of the checked-in smoke spec digests identically to the
// built-in spec.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "arch/architecture.hpp"
#include "arch/scenario.hpp"
#include "core/evaluator.hpp"
#include "cs/solver.hpp"
#include "core/sweep.hpp"
#include "obs/obs.hpp"
#include "run/coordinator.hpp"
#include "run/durable.hpp"
#include "run/scenario.hpp"
#include "run/status_report.hpp"
#include "run/worker.hpp"
#include "util/cache.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

using namespace efficsense;
using namespace efficsense::core;

namespace {

void usage() {
  std::cerr
      << "usage: run_sweep --journal <path> [--scenario <spec.json>]\n"
         "                 [--out <csv>] [--timeout <s>] [--point-delay-ms <n>]\n"
         "       run_sweep --merge <out.jsonl> --inputs <j1> <j2> ...\n"
         "                 [--scenario <spec.json>] [--out <csv>]\n"
         "       run_sweep --coordinator <spool-dir> [--workers <N>]\n"
         "                 [--lease-ttl <s>] [--scenario <spec.json>]\n"
         "                 [--out <csv>] [--point-delay-ms <n>]\n"
         "       run_sweep --worker <spool-dir> [--worker-name <name>]\n"
         "                 [--scenario <spec.json>] [--point-delay-ms <n>]\n"
         "       run_sweep --status <journal-or-spool> [--inputs <more>...]"
         " [--json]\n"
         "       run_sweep --list-architectures\n"
         "       run_sweep --list-solvers\n";
}

/// The built-in scenario: the fixed CI space (both chain families, 12
/// points). Kept byte-for-byte in sync with examples/scenario_ci_smoke.json
/// so `--scenario` on the checked-in file reproduces the default run
/// exactly — CI asserts the RESULT_DIGESTs match.
constexpr const char* kCiSmokeSpec = R"({
  "name": "ci-smoke",
  "architecture": "auto",
  "axes": [
    {"name": "lna_noise_vrms", "values": [2e-6, 6e-6, 20e-6]},
    {"name": "adc_bits", "values": [6, 8]},
    {"name": "cs_m", "values": [0, 75]}
  ],
  "eval": {"residual_tol": 0.02},
  "sweep": {"segments": 2, "train_segments": 12, "seed": 2022}
})";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void report(const run::RunOutcome& outcome, const std::string& csv,
            const std::string& out_csv) {
  std::cout << "points_resumed=" << outcome.points_resumed
            << " points_evaluated=" << outcome.points_evaluated
            << " points_retried=" << outcome.points_retried
            << " points_quarantined=" << outcome.quarantined.size() << "\n";
  for (const auto& [name, value] :
       obs::Registry::instance().counters_with_prefix("run/")) {
    std::cout << "counter " << name << "=" << value << "\n";
  }
  std::cout << "RESULT_POINTS=" << outcome.results.size() << "\n";
  std::cout << "RESULT_DIGEST=" << hex16(fnv1a(csv)) << "\n";
  if (!out_csv.empty()) {
    std::ofstream out(out_csv, std::ios::trunc | std::ios::binary);
    out << csv;
    std::cout << "[wrote " << out_csv << "]\n";
  }
}

void list_architectures() {
  for (const arch::Architecture* a : arch::ArchRegistry::instance().list()) {
    std::printf("%-12s %s\n", a->id().c_str(), a->description().c_str());
  }
}

void list_solvers() {
  for (const cs::SparseSolver* s : cs::SolverRegistry::instance().list()) {
    std::printf("%-18s code=%d  %s\n", s->id().c_str(),
                cs::SolverRegistry::instance().code_of(s->id()),
                s->description().c_str());
  }
}

/// Fork+exec one local worker process (re-invoking this binary with
/// --worker). fork without exec is unsafe once threads exist, so the
/// coordinator calls this before building its scenario context.
pid_t spawn_worker(const char* self, const std::string& spool,
                   const std::string& name, const std::string& scenario_path,
                   int point_delay_ms) {
  std::vector<std::string> args = {self, "--worker", spool, "--worker-name",
                                   name};
  if (!scenario_path.empty()) {
    args.push_back("--scenario");
    args.push_back(scenario_path);
  }
  if (point_delay_ms > 0) {
    args.push_back("--point-delay-ms");
    args.push_back(std::to_string(point_delay_ms));
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argvv;
    argvv.reserve(args.size() + 1);
    for (auto& a : args) argvv.push_back(const_cast<char*>(a.c_str()));
    argvv.push_back(nullptr);
    ::execv(self, argvv.data());
    std::perror("run_sweep: execv worker");
    _exit(127);
  }
  EFF_REQUIRE(pid > 0, "fork failed launching worker " + name);
  std::cout << "[worker " << name << " pid " << pid << "]\n";
  return pid;
}

/// The EFFICSENSE_THREADS pool the evaluator fans out over (0 = hardware
/// concurrency); null when that comes to one thread.
std::unique_ptr<ThreadPool> pool_from_env() {
  const auto threads = static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("EFFICSENSE_THREADS", 0)));
  if (threads == 1) return nullptr;
  auto pool = std::make_unique<ThreadPool>(threads);
  if (pool->size() <= 1) pool.reset();
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal, merge_out, out_csv, scenario_path, status_journal;
  std::string coordinator_spool, worker_spool, worker_name;
  std::vector<std::string> inputs;
  double timeout_s = 0.0;
  double lease_ttl_s = 0.0;
  int point_delay_ms = 0;
  long long workers = -1;  // -1 = EFFICSENSE_WORKERS
  bool merge_mode = false;
  bool json_report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--journal") {
      journal = next();
    } else if (arg == "--merge") {
      merge_mode = true;
      merge_out = next();
    } else if (arg == "--inputs") {
      while (i + 1 < argc && argv[i + 1][0] != '-') inputs.push_back(argv[++i]);
    } else if (arg == "--scenario") {
      scenario_path = next();
    } else if (arg == "--status") {
      status_journal = next();
    } else if (arg == "--json") {
      json_report = true;
    } else if (arg == "--list-architectures") {
      list_architectures();
      return 0;
    } else if (arg == "--list-solvers") {
      list_solvers();
      return 0;
    } else if (arg == "--out") {
      out_csv = next();
    } else if (arg == "--timeout") {
      timeout_s = std::stod(next());
    } else if (arg == "--point-delay-ms") {
      point_delay_ms = std::stoi(next());
    } else if (arg == "--coordinator") {
      coordinator_spool = next();
    } else if (arg == "--worker") {
      worker_spool = next();
    } else if (arg == "--worker-name") {
      worker_name = next();
    } else if (arg == "--workers") {
      workers = std::stoll(next());
    } else if (arg == "--lease-ttl") {
      lease_ttl_s = std::stod(next());
    } else {
      usage();
      return 2;
    }
  }

  try {
    if (!status_journal.empty()) {
      std::vector<std::string> journals;
      std::string status_path;
      for (const auto& arg : std::vector<std::string>{status_journal}) {
        if (std::filesystem::is_directory(arg)) {
          auto spool = run::discover_spool(arg);
          journals.insert(journals.end(), spool.journals.begin(),
                          spool.journals.end());
          status_path = spool.status_path;
        } else {
          journals.push_back(arg);
        }
      }
      journals.insert(journals.end(), inputs.begin(), inputs.end());
      const auto status = run::build_report(journals, status_path);
      std::cout << (json_report ? run::render_json(status)
                                : run::render_text(status));
      return status.stale || !status.quarantined_points.empty() ? 4 : 0;
    }

    const auto spec = scenario_path.empty()
                          ? arch::scenario_from_json(kCiSmokeSpec)
                          : arch::scenario_from_file(scenario_path);

    if (!coordinator_spool.empty()) {
      // Clear stale control state, then fork the local fleet before any
      // thread exists in this process (scenario building spins threads).
      run::Coordinator::reset_spool(coordinator_spool);
      const long long fleet_size =
          workers >= 0 ? workers
                       : static_cast<long long>(run::workers_from_env());
      std::vector<pid_t> pids;
      for (long long k = 0; k < fleet_size; ++k) {
        pids.push_back(spawn_worker(argv[0], coordinator_spool,
                                    "w" + std::to_string(k), scenario_path,
                                    point_delay_ms));
      }

      const auto context = run::make_scenario_context(
          spec, nullptr,
          [](const std::string& line) { std::cout << "[" << line << "]\n"; });
      run::CoordinatorOptions options;
      options.spool_dir = coordinator_spool;
      options.config_digest = context->evaluator->config_digest();
      options.lease_ttl_s = lease_ttl_s;
      options.stall_timeout_s = 600.0;  // CI hang guard
      std::cout << "[scenario: "
                << (context->spec.name.empty() ? "(unnamed)"
                                               : context->spec.name)
                << ", architecture " << context->spec.architecture << "]\n";
      std::cout << "[fleet: " << context->spec.space.size()
                << " points, spool " << coordinator_spool << ", "
                << fleet_size << " local workers]\n";

      run::Coordinator coordinator(context->base, context->spec.space,
                                   options);
      const auto outcome =
          coordinator.run([&](std::size_t done, std::size_t total) {
            std::cout << "[progress " << done << "/" << total << "]"
                      << std::endl;  // flushed: fleet-smoke greps it
          });
      for (const pid_t pid : pids) {
        int wstatus = 0;
        ::waitpid(pid, &wstatus, 0);
      }
      std::cout << "fleet workers_seen=" << outcome.stats.workers_seen
                << " leases_granted=" << outcome.stats.leases_granted
                << " leases_stolen=" << outcome.stats.leases_stolen
                << " leases_expired=" << outcome.stats.leases_expired
                << " leases_reassigned=" << outcome.stats.leases_reassigned
                << " duplicate_points=" << outcome.stats.duplicate_points
                << "\n";
      report(outcome.merged, sweep_to_csv(outcome.merged.results), out_csv);
      return outcome.merged.quarantined.empty() ? 0 : 3;
    }

    if (!worker_spool.empty()) {
      const auto pool = pool_from_env();
      const auto context = run::make_scenario_context(
          spec, pool.get(),
          [](const std::string& line) { std::cout << "[" << line << "]\n"; });
      run::WorkerOptions options;
      options.spool_dir = worker_spool;
      options.name = worker_name;
      options.config_digest = context->evaluator->config_digest();
      run::DurableSweeper::EvalFn eval = [&](const power::DesignParams& d) {
        if (point_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(point_delay_ms));
        }
        return context->evaluator->evaluate(d);
      };
      run::Worker worker(std::move(eval), context->base, context->spec.space,
                         options);
      std::cout << "[worker " << worker.name() << " joining spool "
                << worker_spool << "]\n";
      const auto outcome = worker.run();
      std::cout << "worker_evaluated=" << outcome.points_evaluated
                << " worker_skipped=" << outcome.points_skipped
                << " worker_quarantined=" << outcome.points_quarantined
                << " worker_leases=" << outcome.leases_completed << "\n";
      for (const auto& [name, value] :
           obs::Registry::instance().counters_with_prefix("run/")) {
        std::cout << "counter " << name << "=" << value << "\n";
      }
      return outcome.points_quarantined == 0 ? 0 : 3;
    }

    if (merge_mode) {
      if (inputs.empty()) {
        usage();
        return 2;
      }
      const auto outcome =
          run::merge_journals(inputs, spec.base_design(), merge_out);
      report(outcome, sweep_to_csv(outcome.results), out_csv);
      return outcome.quarantined.empty() ? 0 : 3;
    }

    if (journal.empty()) {
      usage();
      return 2;
    }

    const auto pool = pool_from_env();
    const auto context = run::make_scenario_context(
        spec, pool.get(),
        [](const std::string& line) { std::cout << "[" << line << "]\n"; });

    run::RunOptions options;
    options.journal_path = journal;
    options.shard = run::shard_from_env();
    options.point_timeout_s = timeout_s;
    options.config_digest = context->evaluator->config_digest();

    std::cout << "[scenario: "
              << (context->spec.name.empty() ? "(unnamed)" : context->spec.name)
              << ", architecture " << context->spec.architecture << "]\n";
    std::cout << "[sweep: " << context->spec.space.size() << " points, shard "
              << options.shard.to_string() << ", " << context->dataset.size()
              << " segments]\n";

    // The delay wrapper (CI uses it to widen the SIGKILL window) must not
    // enter the digest: it cannot change any result.
    run::DurableSweeper::EvalFn eval = [&](const power::DesignParams& d) {
      if (point_delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(point_delay_ms));
      }
      return context->evaluator->evaluate(d);
    };
    const run::DurableSweeper sweeper(std::move(eval), options);
    const auto outcome = sweeper.run(
        context->base, context->spec.space, pool.get(),
        [&](std::size_t done, std::size_t total) {
          std::cout << "[progress " << done << "/" << total << "]"
                    << std::endl;  // flushed: the kill-and-resume job greps it
        });
    report(outcome, sweep_to_csv(outcome.results), out_csv);
    return outcome.quarantined.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "run_sweep: " << e.what() << "\n";
    return 1;
  }
}
