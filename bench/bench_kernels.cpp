// google-benchmark microbenchmarks of the numerical kernels that dominate
// sweep runtime: FFT, Welch PSD, matrix multiply, Gram build, OMP
// reconstruction (Batch vs naive), per-solver frame decodes (BSBL also at
// its iteration cap), the sparse-vs-dense charge-sharing encode, and the
// dictionary build. Owns its own main() so the obs sidecar captures real
// counters and the per-kernel timings land in the BENCH_kernels.json
// trajectory file (stamped with the host fingerprint) at the working
// directory root.

#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "blocks/cs_encoder.hpp"
#include "cs/basis.hpp"
#include "cs/effective.hpp"
#include "cs/omp.hpp"
#include "cs/reconstructor.hpp"
#include "cs/solver.hpp"
#include "dsp/fft.hpp"
#include "dsp/metrics.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "obs/obs.hpp"
#include "results_common.hpp"
#include "util/rng.hpp"

using namespace efficsense;

namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

linalg::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(r, c);
  for (auto& v : m.data()) v = rng.gaussian();
  return m;
}

/// One CS frame at the paper's dimensions: s-SRBM Phi, charge-sharing
/// gains, a band-limited test signal and its encoded measurement vector.
struct OmpProblem {
  cs::SparseBinaryMatrix phi;
  cs::ChargeSharingGains gains;
  linalg::Vector x;
  linalg::Vector y;
};

OmpProblem make_omp_problem(std::size_t m) {
  OmpProblem p;
  p.phi = cs::SparseBinaryMatrix::generate(m, 384, 2, 9);
  p.gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  linalg::Vector coeffs(384, 0.0);
  Rng rng(10);
  for (std::size_t k = 1; k < 30; ++k) coeffs[k] = rng.gaussian();
  p.x = cs::dct_inverse(coeffs);
  const auto w = cs::effective_entry_weights(p.phi, p.gains.a, p.gains.b);
  p.y = p.phi.csr().apply(p.x, w);
  return p;
}

void omp_frame_bench(benchmark::State& state, cs::OmpMode mode) {
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
  cfg.omp_mode = mode;
  const cs::Reconstructor rec(p.phi, p.gains, cfg);
  for (auto _ : state) {
    auto xr = rec.reconstruct_frame(p.y);
    benchmark::DoNotOptimize(xr.data());
  }
}

}  // namespace

static void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> x(n);
  Rng rng(1);
  for (auto& v : x) v = dsp::Complex(rng.gaussian(), 0.0);
  for (auto _ : state) {
    auto copy = x;
    dsp::fft_pow2(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_FftBluestein384(benchmark::State& state) {
  std::vector<dsp::Complex> x(384);
  Rng rng(2);
  for (auto& v : x) v = dsp::Complex(rng.gaussian(), 0.0);
  for (auto _ : state) {
    auto spec = dsp::fft(x);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FftBluestein384);

static void BM_WelchPsd(benchmark::State& state) {
  const auto x = random_signal(12690, 3);  // one 23.6 s segment at f_sample
  for (auto _ : state) {
    auto psd = dsp::welch_psd(x, 537.6, 512);
    benchmark::DoNotOptimize(psd.density.data());
  }
}
BENCHMARK(BM_WelchPsd);

static void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 4);
  const auto b = random_matrix(n, n, 5);
  for (auto _ : state) {
    auto c = linalg::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(96)->Arg(192)->Arg(384);

static void BM_Gram(benchmark::State& state) {
  // G = A^T A of an M x K dictionary (the Batch-OMP setup cost).
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(150, k, 6);
  for (auto _ : state) {
    auto g = linalg::gram(a);
    benchmark::DoNotOptimize(g.data().data());
  }
}
BENCHMARK(BM_Gram)->Arg(96)->Arg(192)->Arg(384);

static void BM_OmpFrameBatch(benchmark::State& state) {
  omp_frame_bench(state, cs::OmpMode::Batch);
}
BENCHMARK(BM_OmpFrameBatch)->Arg(75)->Arg(150)->Arg(192);

static void BM_OmpFrameNaive(benchmark::State& state) {
  omp_frame_bench(state, cs::OmpMode::Naive);
}
BENCHMARK(BM_OmpFrameNaive)->Arg(75)->Arg(150)->Arg(192);

// --- Registry solver micro-benches: one frame decode per iteration, the
// same charge-sharing problem the OMP benches time, routed through the
// registered solver. The gateway-cost table in DESIGN.md §16 comes from
// these numbers.
static void solver_frame_bench(benchmark::State& state, const char* solver) {
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
  cfg.solver = solver;
  const cs::Reconstructor rec(p.phi, p.gains, cfg);
  for (auto _ : state) {
    auto xr = rec.reconstruct_frame(p.y);
    benchmark::DoNotOptimize(xr.data());
  }
}

static void BM_BsblFrame(benchmark::State& state) {
  solver_frame_bench(state, "bsbl");
}
BENCHMARK(BM_BsblFrame)->Arg(75)->Arg(150);

static void BM_BsblFrameAtCap(benchmark::State& state) {
  // The regime sweeps hit: chain frames carry front-end noise, so BSBL's
  // learned noise floor keeps moving and the BO loop runs to its 100-
  // iteration cap (BM_BsblFrame's clean frame converges in a few). Same
  // s-SRBM, gains and truncated DCT dictionary as the reconstructor, plus
  // white noise at 10% of the measurement RMS.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  auto p = make_omp_problem(m);
  const double rms =
      linalg::norm2(p.y) / std::sqrt(static_cast<double>(p.y.size()));
  Rng rng(11);
  for (double& v : p.y) v += 0.1 * rms * rng.gaussian();

  const std::size_t n = p.phi.cols();
  const auto atoms =
      static_cast<std::size_t>(0.85 * static_cast<double>(m));
  const auto psi = cs::dct_synthesis_matrix(n);
  linalg::Matrix psi_trunc(n, atoms);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < atoms; ++k) psi_trunc(r, k) = psi(r, k);
  }
  cs::SolverOptions opts;
  opts.residual_tol = 0.02;
  const auto solver = cs::SolverRegistry::instance().get("bsbl").prepare(
      cs::effective_dictionary(p.phi, p.gains.a, p.gains.b, psi_trunc), opts);
  std::size_t iters = 0;
  for (auto _ : state) {
    auto sol = solver->solve(p.y);
    iters = sol.iterations;
    benchmark::DoNotOptimize(sol.coefficients.data());
  }
  state.counters["bo_iters"] = static_cast<double>(iters);
  if (iters != opts.max_iters) {
    state.SkipWithError("frame converged before the iteration cap");
  }
}
BENCHMARK(BM_BsblFrameAtCap)->Arg(75);

static void BM_AmpFrame(benchmark::State& state) {
  solver_frame_bench(state, "amp");
}
BENCHMARK(BM_AmpFrame)->Arg(75)->Arg(150);

static void BM_IhtFrame(benchmark::State& state) {
  solver_frame_bench(state, "iht");
}
BENCHMARK(BM_IhtFrame)->Arg(75);

static void BM_IstaFrame(benchmark::State& state) {
  solver_frame_bench(state, "ista");
}
BENCHMARK(BM_IstaFrame)->Arg(75);

static void BM_PhiApplySparse(benchmark::State& state) {
  // y = Phi_eff * x through the CSR operator: O(nnz) per frame.
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  const auto w = cs::effective_entry_weights(p.phi, p.gains.a, p.gains.b);
  for (auto _ : state) {
    auto y = p.phi.csr().apply(p.x, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PhiApplySparse)->Arg(75)->Arg(150)->Arg(192);

static void BM_PhiApplyDense(benchmark::State& state) {
  // The pre-optimization encode: dense M x N matvec against Phi_eff.
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  const auto eff = cs::effective_matrix(p.phi, p.gains.a, p.gains.b);
  for (auto _ : state) {
    auto y = linalg::matvec(eff, p.x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PhiApplyDense)->Arg(75)->Arg(150)->Arg(192);

static void BM_DictBuildSparse(benchmark::State& state) {
  // A = Phi_eff * Psi via the CSR operator: O(nnz * K).
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  const auto psi = cs::dct_synthesis_matrix(384);
  for (auto _ : state) {
    auto a = cs::effective_dictionary(p.phi, p.gains.a, p.gains.b, psi);
    benchmark::DoNotOptimize(a.data().data());
  }
}
BENCHMARK(BM_DictBuildSparse)->Arg(75)->Arg(192);

static void BM_DictBuildDense(benchmark::State& state) {
  // The pre-optimization dictionary build: dense M x N by N x K matmul.
  const auto p = make_omp_problem(static_cast<std::size_t>(state.range(0)));
  const auto psi = cs::dct_synthesis_matrix(384);
  for (auto _ : state) {
    auto eff = cs::effective_matrix(p.phi, p.gains.a, p.gains.b);
    auto a = linalg::matmul(eff, psi);
    benchmark::DoNotOptimize(a.data().data());
  }
}
BENCHMARK(BM_DictBuildDense)->Arg(75)->Arg(192);

static void BM_ChargeSharingEncode(benchmark::State& state) {
  power::TechnologyParams tech;
  power::DesignParams design;
  design.cs_m = static_cast<int>(state.range(0));
  auto phi = cs::SparseBinaryMatrix::generate(
      static_cast<std::size_t>(design.cs_m), 384, 2, 11);
  blocks::CsEncoderBlock enc("enc", tech, design, phi, 1, 2);
  // 4 s of "analog" input.
  const sim::Waveform in(2048.0, random_signal(8192, 12));
  for (auto _ : state) {
    auto out = enc.process({in});
    benchmark::DoNotOptimize(out.front().samples.data());
  }
}
BENCHMARK(BM_ChargeSharingEncode)->Arg(75)->Arg(192);

static void BM_SnrMetric(benchmark::State& state) {
  const auto a = random_signal(12690, 13);
  auto b = a;
  for (auto& v : b) v *= 1.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::snr_vs_reference_db(a, b));
  }
}
BENCHMARK(BM_SnrMetric);

namespace {

/// Console reporter that additionally records every per-iteration real
/// time, so main() can write the BENCH_kernels.json trajectory file.
class KernelReporter : public benchmark::ConsoleReporter {
 public:
  // Name-keyed ns/iteration, in registration order.
  std::vector<std::pair<std::string, double>> timings;

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

/// The checked-in kernel trajectory: per-kernel ns, the headline
/// batch-vs-naive / sparse-vs-dense speedups, and the obs instruments.
void write_bench_kernels_json(
    const std::vector<std::pair<std::string, double>>& timings) {
  std::ofstream out("BENCH_kernels.json", std::ios::trunc);
  if (!out) {
    std::cerr << "[bench_kernels] cannot write BENCH_kernels.json\n";
    return;
  }
  out.precision(6);
  out << "{\n  \"bench\": \"bench_kernels\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << "    {\"name\": \"" << obs::json_escape(timings[i].first)
        << "\", \"ns_per_iter\": " << timings[i].second << "}"
        << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  const auto ratio = [&](const std::string& slow, const std::string& fast) {
    const double f = lookup_ns(timings, fast);
    return f > 0.0 ? lookup_ns(timings, slow) / f : 0.0;
  };
  out << "  ],\n  \"speedups\": {\n"
      << "    \"omp_frame_batch_vs_naive_m75\": "
      << ratio("BM_OmpFrameNaive/75", "BM_OmpFrameBatch/75") << ",\n"
      << "    \"omp_frame_batch_vs_naive_m150\": "
      << ratio("BM_OmpFrameNaive/150", "BM_OmpFrameBatch/150") << ",\n"
      << "    \"omp_frame_batch_vs_naive_m192\": "
      << ratio("BM_OmpFrameNaive/192", "BM_OmpFrameBatch/192") << ",\n"
      << "    \"phi_apply_sparse_vs_dense_m150\": "
      << ratio("BM_PhiApplyDense/150", "BM_PhiApplySparse/150") << ",\n"
      << "    \"dict_build_sparse_vs_dense_m192\": "
      << ratio("BM_DictBuildDense/192", "BM_DictBuildSparse/192") << "\n"
      << "  },\n";
  // Per-solver frame decode rates (the trajectory gate keys on these).
  const auto solves_per_s = [&](const std::string& name) {
    const double ns = lookup_ns(timings, name);
    return ns > 0.0 ? 1e9 / ns : 0.0;
  };
  out << "  \"solvers\": {\n"
      << "    \"omp_solves_per_s\": " << solves_per_s("BM_OmpFrameBatch/75")
      << ",\n"
      << "    \"bsbl_solves_per_s\": " << solves_per_s("BM_BsblFrame/75")
      << ",\n"
      << "    \"bsbl_at_cap_solves_per_s\": "
      << solves_per_s("BM_BsblFrameAtCap/75") << ",\n"
      << "    \"amp_solves_per_s\": " << solves_per_s("BM_AmpFrame/75")
      << ",\n"
      << "    \"iht_solves_per_s\": " << solves_per_s("BM_IhtFrame/75")
      << ",\n"
      << "    \"ista_solves_per_s\": " << solves_per_s("BM_IstaFrame/75")
      << "\n  },\n  \"omp\": " << bench::omp_instruments_json()
      << ",\n  \"host\": " << bench::host_json() << "\n}\n";
  std::cout << "[writing BENCH_kernels.json]\n";
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchRun obs_run("bench_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  KernelReporter reporter;
  {
    EFFICSENSE_SPAN("bench_kernels/run");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  obs_run.set_points(reporter.timings.size());
  const double naive150 = lookup_ns(reporter.timings, "BM_OmpFrameNaive/150");
  const double batch150 = lookup_ns(reporter.timings, "BM_OmpFrameBatch/150");
  if (batch150 > 0.0) {
    obs_run.add_field("omp_frame_batch_vs_naive_m150", naive150 / batch150);
  }
  write_bench_kernels_json(reporter.timings);
  return 0;
}
