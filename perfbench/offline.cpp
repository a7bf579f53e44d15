// The offline workloads: paper_sweep and solver_sweep (design-space sweeps
// through run::DurableSweeper with a group-commit journal) and mc_yield
// (core::monte_carlo on the batched lane path).

#include <atomic>
#include <cmath>
#include <filesystem>

#include "core/design_space.hpp"
#include "core/monte_carlo.hpp"
#include "cs/solver.hpp"
#include "layers.hpp"
#include "run/durable.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace efficsense;

namespace {

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return double(t1 - t0) * 1e-9;
}

std::unique_ptr<ThreadPool> executor_pool(std::size_t executors) {
  // ThreadPool::parallel_for runs tasks on the calling thread too, so a
  // pool of n - 1 workers keeps n threads busy.
  if (executors <= 1) return nullptr;
  return std::make_unique<ThreadPool>(executors - 1);
}

/// End-to-end metrics shared by every offline workload. Throughput is taken
/// over the median pass, so one pass slowed by a noisy neighbour does not
/// move it; latency medians are nearest-rank, so they are always a measured
/// unit's latency (never the mean of two units of different kinds).
void offline_e2e(Report& r, double units_per_pass,
                 const std::vector<double>& pass_s, double setup_s,
                 std::size_t setup_reps, const std::vector<double>& latency_s) {
  r.add(r.e2e, "points_per_s", units_per_pass / median(pass_s), "1/s",
        std::size_t(units_per_pass) * pass_s.size(),
        "median of " + std::to_string(pass_s.size()) + " passes");
  r.add(r.e2e, "setup_s", setup_s, "s", setup_reps, "median of set-ups");
  r.add(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<double> ms;
  for (const double s : latency_s) ms.push_back(s * 1e3);
  std::string label;
  const double tail_ms = tail(ms, &label);
  r.add(r.e2e, "lat_p50_ms", quantile(ms, 0.5), "ms", ms.size());
  r.add(r.e2e, "lat_tail_ms", tail_ms, "ms", ms.size(), label);
}

// --- sweeps ------------------------------------------------------------------

struct SweepPlan {
  std::string name;
  power::DesignParams base;
  core::DesignSpace space;
};

struct SweepSpec {
  const char* workload;
  BedConfig bed;
  std::vector<SweepPlan> plans;
  std::uint64_t pinned_digest;  ///< result digest at kDefaultSeed
  std::size_t sample_checks;    ///< points re-evaluated serially
};

// In the traced run the EvalFn and the progress callback run on the same
// worker thread for a point, so the point's id and return time travel
// between them thread-locally; the callback records the journal commit.
thread_local std::int64_t tl_return_ns = 0;
thread_local std::uint64_t tl_point = 0;

struct PassOutcome {
  std::vector<core::SweepResult> results;  ///< plans concatenated
  std::uint64_t points = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t retried = 0;
};

PassOutcome run_pass(const SweepSpec& spec, const EvalEnv& env,
                     ThreadPool* pool, std::size_t pass, bool traced) {
  PassOutcome out;
  std::atomic<std::uint64_t> next_point{0};
  const std::uint32_t commit_span = PB_SPAN_NAME("run.commit");
  for (const SweepPlan& plan : spec.plans) {
    run::RunOptions ro;
    ro.journal_path = "journals/" + plan.name + "-" + std::to_string(pass) +
                      ".jsonl";
    ro.config_digest = env.evaluator->config_digest();
    const run::DurableSweeper::EvalFn eval =
        [&](const power::DesignParams& design) {
          if (!traced) return env.evaluator->evaluate(design);
          tl_point = next_point.fetch_add(1) + (std::uint64_t(pass) << 32);
          core::EvalMetrics m = traced_evaluate(env, design, tl_point);
          tl_return_ns = now_ns();
          return m;
        };
    const auto progress = [&](std::size_t, std::size_t) {
      if (tl_return_ns == 0) return;
      Tracer::instance().record(commit_span, tl_return_ns, now_ns(), tl_point);
      tl_return_ns = 0;
    };
    const run::DurableSweeper sweeper(eval, ro);
    auto outcome = sweeper.run(plan.base, plan.space, pool,
                               traced ? run::DurableSweeper::Progress(progress)
                                      : run::DurableSweeper::Progress());
    out.points += plan.space.size();
    out.quarantined += outcome.quarantined.size();
    out.retried += outcome.points_retried;
    for (auto& r : outcome.results) out.results.push_back(std::move(r));
  }
  return out;
}

Report run_sweep_workload(const Options& opt, const SweepSpec& spec) {
  Report r;
  r.workload = spec.workload;
  const std::size_t threads = executors();
  const double span_cost = opt.trace ? calibrate_span_cost() : 0.0;

  std::unique_ptr<Bed> bed;
  std::vector<double> setup_times;
  const double setup_s = timed_setup<Bed>(
      [&] { return make_bed(spec.bed, threads); }, &bed, &setup_times);
  fingerprint(r, threads, 1);
  auto pool = executor_pool(threads);
  std::filesystem::create_directories("journals");

  LayerTally tally;
  EvalEnv env{bed->evaluator.get(), &bed->dataset, &*bed->detector, &tally,
              nullptr};
  std::vector<std::uint64_t> digests;
  std::vector<core::SweepResult> first;
  PassOutcome total;

  Tracer::instance().clear();
  Tracer::instance().enable(opt.trace);
  const ObsSnap obs0 = ObsSnap::take();
  const std::int64_t w0 = now_ns();
  std::size_t passes = 0;
  std::vector<double> pass_s;
  do {
    const std::int64_t t0 = now_ns();
    PassOutcome pass = run_pass(spec, env, pool.get(), passes, opt.trace);
    pass_s.push_back(seconds_between(t0, now_ns()));
    digests.push_back(results_digest(pass.results));
    total.points += pass.points;
    total.quarantined += pass.quarantined;
    total.retried += pass.retried;
    if (passes == 0) first = std::move(pass.results);
    ++passes;
  } while (seconds_between(w0, now_ns()) < opt.seconds);
  const std::int64_t w1 = now_ns();
  const ObsSnap obs1 = ObsSnap::take();
  Tracer::instance().enable(false);

  // Correctness, outside the timed window.
  r.attempted = total.points;
  r.failed = total.quarantined;
  r.fact("result_digest", hex16(digests.front()));
  r.fact("passes", std::to_string(passes));
  for (const auto d : digests) {
    r.check(d == digests.front(), "sweep passes disagree on the result digest");
  }
  if (opt.seed == kDefaultSeed && !opt.smoke) {
    r.check(digests.front() == spec.pinned_digest,
            "result digest " + hex16(digests.front()) + " != pinned " +
                hex16(spec.pinned_digest));
  }
  r.check(first.size() == total.points / passes,
          "sweep lost points (quarantined or missing)");
  for (std::size_t k = 0; k < spec.sample_checks && !first.empty(); ++k) {
    const auto i = std::size_t(derive_seed(opt.seed, 0x5A3 + k) % first.size());
    if (opt.tamper && k == 0) {
      first[i].metrics.snr_db = std::nextafter(first[i].metrics.snr_db, 1e300);
    }
    const auto serial = bed->evaluator->evaluate(first[i].design);
    r.check(same_bits(serial, first[i].metrics),
            "point " + std::to_string(i) +
                " differs from a serial Evaluator::evaluate");
  }

  if (!opt.trace) {
    // A sweep's latency is the time to its whole result, one pass. Both
    // grids are a few equal-sized classes of very different cost (design
    // families, solvers), so a point-latency median falls between two
    // classes and moves 30-47% from run to run; point latencies are in the
    // traced run's core.point_s.*.
    offline_e2e(r, double(total.points / passes), pass_s, setup_s,
                setup_times.size(), pass_s);
    return r;
  }
  const Ledger ledger = Tracer::instance().ledger(w0, w1, threads);
  LayerValues lv;
  lv.set("eeg.synth_s", bed->synth_s);
  lv.set("classify.train_s", bed->train_s);
  offline_layers(lv, ledger, obs0, obs1, tally);
  lv.set("run.fsync_coalesced",
         double(counter_delta(obs0, obs1, "run/fsync_coalesced")));
  lv.set("run.quarantined", double(total.quarantined));
  lv.set("run.retried", double(total.retried));
  ledger_checks(lv, r, ledger, span_cost);
  // Every reconstructing solver a sweep runs must show decode time.
  for (const auto& res : first) {
    if (!res.design.uses_cs()) continue;
    const std::string span = decode_span_name(*bed->evaluator, res.design);
    r.check(ledger.self(span) > 0.0, "no decode time attributed to " + span);
  }
  lv.emit(r);
  if (!opt.trace_out.empty()) Tracer::instance().write_jsonl(opt.trace_out);
  return r;
}

std::vector<double> scaled(std::initializer_list<double> uv) {
  std::vector<double> v;
  for (const double x : uv) v.push_back(x * 1e-6);
  return v;
}

}  // namespace

Report run_paper_sweep(const Options& opt) {
  // The Fig. 7a/7b study grid of core::Study at its default scale.
  SweepSpec spec;
  spec.workload = "paper_sweep";
  spec.bed.seed = opt.seed;
  spec.bed.eval_segments = opt.smoke ? 2 : 32;
  spec.bed.train_segments = opt.smoke ? 12 : 80;
  spec.bed.detector.fs_hz = power::DesignParams{}.f_sample_hz();
  spec.bed.eval.recon.residual_tol = 0.02;
  const std::vector<double> noise =
      opt.smoke ? scaled({2.0, 20.0})
                : scaled({1.0, 2.0, 3.5, 6.0, 10.0, 15.0, 20.0});
  const std::vector<double> bits = {6, 7, 8};

  SweepPlan baseline{"baseline", power::DesignParams{}, {}};
  baseline.space.add_axis("lna_noise_vrms", noise)
      .add_axis("adc_bits", bits)
      .add_axis("dac_c_unit_f", {1e-15, 4e-15});
  SweepPlan cs{"cs", power::DesignParams{}, {}};
  cs.base.cs_m = 75;
  cs.space.add_axis("lna_noise_vrms", noise)
      .add_axis("adc_bits", bits)
      .add_axis("cs_m", {75, 150, 192})
      .add_axis("cs_c_hold_f", {0.2e-12, 1e-12});
  spec.plans = {baseline, cs};
  spec.pinned_digest = 0xe06753ce04c3d934ULL;
  spec.sample_checks = 2;
  return run_sweep_workload(opt, spec);
}

Report run_solver_sweep(const Options& opt) {
  // cs_passive at M = 75: solver x LNA noise, no decode pool.
  SweepSpec spec;
  spec.workload = "solver_sweep";
  spec.bed.seed = opt.seed;
  spec.bed.eval_segments = opt.smoke ? 1 : 4;
  spec.bed.train_segments = opt.smoke ? 12 : 40;
  spec.bed.eval.recon.residual_tol = 0.02;
  spec.bed.eval.architecture = "cs_passive";

  power::DesignParams base;
  base.cs_m = 75;
  // compressed_domain scores the detector on y directly, so the detector
  // also trains on measurement-domain views (as run::make_scenario_context
  // arranges for such scenarios).
  auto& det = spec.bed.detector;
  det.fs_hz = base.f_sample_hz();
  det.augment.y_view.enabled = true;
  det.augment.y_view.phi_seed = spec.bed.eval.seeds.phi;
  det.augment.y_view.m = base.cs_m;
  det.augment.y_view.n_phi = base.cs_n_phi;
  det.augment.y_view.sparsity = base.cs_sparsity;
  det.augment.y_view.c_sample_f = base.cs_c_sample_f;
  det.augment.y_view.c_hold_f = base.cs_c_hold_f;

  auto& solvers = cs::SolverRegistry::instance();
  std::vector<double> codes;
  for (const char* id : {"omp", "bsbl", "amp", "compressed_domain"}) {
    codes.push_back(double(solvers.code_of(id)));
  }
  SweepPlan plan{"solvers", base, {}};
  plan.space.add_axis("solver", codes)
      .add_axis("lna_noise_vrms", scaled({2.0, 6.0, 20.0}));
  spec.plans = {plan};
  spec.pinned_digest = 0xa36f77265a2d65ddULL;
  spec.sample_checks = 2;
  return run_sweep_workload(opt, spec);
}

// --- Monte-Carlo yield ---------------------------------------------------------

Report run_mc_yield(const Options& opt) {
  Report r;
  r.workload = "mc_yield";
  const std::size_t threads = executors();
  const std::size_t lanes = 8;
  const double span_cost = opt.trace ? calibrate_span_cost() : 0.0;

  BedConfig bc;
  bc.seed = opt.seed;
  bc.eval_segments = opt.smoke ? 2 : 16;
  bc.train_segments = opt.smoke ? 12 : 60;
  bc.detector.fs_hz = power::DesignParams{}.f_sample_hz();
  bc.eval.recon.residual_tol = 0.02;

  // bench_montecarlo's three candidates plus neighbours on the Fig. 7b
  // front: baseline and CS-OMP chains.
  std::vector<power::DesignParams> designs;
  {
    power::DesignParams baseline;
    baseline.adc_bits = 6;
    baseline.lna_noise_vrms = 6e-6;
    designs.push_back(baseline);
    baseline.adc_bits = 7;
    designs.push_back(baseline);
    power::DesignParams cs;
    cs.adc_bits = 8;
    cs.lna_noise_vrms = 6e-6;
    cs.cs_m = 75;
    cs.cs_c_hold_f = 1e-12;
    designs.push_back(cs);
    power::DesignParams small = cs;
    small.cs_c_hold_f = 0.05e-12;
    small.cs_c_sample_f = 0.0125e-12;
    designs.push_back(small);
    cs.lna_noise_vrms = 10e-6;
    designs.push_back(cs);
  }
  if (opt.smoke) designs.resize(3);

  std::unique_ptr<Bed> bed;
  std::vector<double> setup_times;
  const double setup_s = timed_setup<Bed>(
      [&] { return make_bed(bc, threads); }, &bed, &setup_times);
  fingerprint(r, threads, lanes);

  core::MonteCarloOptions mco;
  mco.instances = opt.smoke ? 8 : 16;
  mco.seed = derive_seed(opt.seed, 0xFAB);
  mco.min_accuracy = 0.95;
  mco.threads = threads > 1 ? threads - 1 : 1;
  mco.lanes = lanes;

  LayerTally tally;
  const EvalEnv env{bed->evaluator.get(), &bed->dataset, &*bed->detector,
                    &tally, nullptr};
  std::vector<core::MonteCarloResult> first;
  std::vector<std::uint64_t> digests;
  std::vector<double> latency_s;
  std::uint64_t instances = 0, runs = 0;

  Tracer::instance().clear();
  Tracer::instance().enable(opt.trace);
  const ObsSnap obs0 = ObsSnap::take();
  const std::int64_t w0 = now_ns();
  std::size_t passes = 0;
  std::vector<double> pass_s;
  do {
    const std::int64_t pass_t0 = now_ns();
    std::uint64_t digest = kFnv;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const std::int64_t t0 = now_ns();
      auto mc = opt.trace ? traced_monte_carlo(env, designs[d], mco, runs)
                          : core::monte_carlo(*bed->evaluator, designs[d], mco);
      latency_s.push_back(seconds_between(t0, now_ns()));
      ++runs;
      instances += mc.instances.size();
      for (const auto& m : mc.instances) digest = metrics_digest(digest, m);
      if (passes == 0) first.push_back(std::move(mc));
    }
    pass_s.push_back(seconds_between(pass_t0, now_ns()));
    digests.push_back(digest);
    ++passes;
  } while (seconds_between(w0, now_ns()) < opt.seconds);
  const std::int64_t w1 = now_ns();
  const ObsSnap obs1 = ObsSnap::take();
  Tracer::instance().enable(false);

  r.attempted = instances;
  r.failed = 0;
  r.fact("result_digest", hex16(digests.front()));
  r.fact("passes", std::to_string(passes));
  for (const auto d : digests) {
    r.check(d == digests.front(), "Monte-Carlo passes disagree on the digest");
  }
  constexpr std::uint64_t kPinned = 0x2577b5bfb0877565ULL;
  if (opt.seed == kDefaultSeed && !opt.smoke) {
    r.check(digests.front() == kPinned, "result digest " +
                                            hex16(digests.front()) +
                                            " != pinned " + hex16(kPinned));
  }
  // Lanes must equal a K = 1 scalar recomputation of sampled instances.
  for (std::size_t k = 0; k < 2; ++k) {
    const auto d = std::size_t(derive_seed(opt.seed, 0x1A7 + k) % designs.size());
    const auto i = std::size_t(derive_seed(opt.seed, 0x1A9 + k) % mco.instances);
    if (opt.tamper && k == 0) {
      auto& acc = first[d].instances[i].accuracy;
      acc = std::nextafter(acc, 1e300);
    }
    core::Evaluator scalar = *bed->evaluator;
    arch::ChainSeeds seeds = bed->evaluator->options().seeds;
    seeds.mismatch = derive_seed(mco.seed, 2 * i);
    scalar.set_seeds(seeds);
    r.check(same_bits(scalar.evaluate(designs[d]), first[d].instances[i]),
            "design " + std::to_string(d) + " instance " + std::to_string(i) +
                ": lane result differs from the scalar path");
  }

  if (!opt.trace) {
    offline_e2e(r, double(instances / passes), pass_s, setup_s,
                setup_times.size(), latency_s);
    return r;
  }
  const Ledger ledger = Tracer::instance().ledger(w0, w1, threads);
  LayerValues lv;
  lv.set("eeg.synth_s", bed->synth_s);
  lv.set("classify.train_s", bed->train_s);
  offline_layers(lv, ledger, obs0, obs1, tally);
  const std::size_t groups = (mco.instances + lanes - 1) / lanes;
  lv.set("core.lane_groups_per_thread", double(groups) / double(threads));
  ledger_checks(lv, r, ledger, span_cost);
  lv.emit(r);
  if (!opt.trace_out.empty()) Tracer::instance().write_jsonl(opt.trace_out);
  return r;
}

}  // namespace perfbench
