// The pluggable sparse-solver registry: dispatch, codes, error contracts,
// the default solver id, BSBL/AMP accuracy versus a naive oracle, BSBL
// bitwise goldens, seed-pinned IHT/ISTA recovery, the solver-keyed
// reconstructor cache, solver-sensitive config digests, and the scalar
// solve_multi fallback's bit-identity on the lane path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>

#include "arch/recon_cache.hpp"
#include "arch/scenario.hpp"
#include "classify/detector.hpp"
#include "core/evaluator.hpp"
#include "cs/amp.hpp"
#include "cs/basis.hpp"
#include "cs/bsbl.hpp"
#include "cs/effective.hpp"
#include "cs/reconstructor.hpp"
#include "cs/solver.hpp"
#include "cs/srbm.hpp"
#include "eeg/generator.hpp"
#include "linalg/decompositions.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace efficsense;

namespace {

linalg::Matrix gaussian_dict(std::size_t m, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix d(m, k);
  for (auto& v : d.data()) v = rng.gaussian() / std::sqrt(static_cast<double>(m));
  return d;
}

linalg::Vector sparse_vector(std::size_t k, std::size_t nnz,
                             std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector x(k, 0.0);
  std::size_t placed = 0;
  while (placed < nnz) {
    const auto idx = static_cast<std::size_t>(rng.below(k));
    if (x[idx] != 0.0) continue;
    x[idx] = rng.gaussian() + (rng.chance(0.5) ? 2.0 : -2.0);
    ++placed;
  }
  return x;
}

/// Block-sparse ground truth: `blocks` whole blocks of `block_size` active.
linalg::Vector block_sparse_vector(std::size_t k, std::size_t block_size,
                                   std::size_t blocks, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector x(k, 0.0);
  const std::size_t n_blocks = (k + block_size - 1) / block_size;
  std::set<std::size_t> chosen;
  while (chosen.size() < blocks) {
    chosen.insert(static_cast<std::size_t>(rng.below(n_blocks)));
  }
  for (const auto b : chosen) {
    for (std::size_t j = b * block_size; j < std::min(k, (b + 1) * block_size);
         ++j) {
      x[j] = rng.gaussian() + (rng.chance(0.5) ? 1.5 : -1.5);
    }
  }
  return x;
}

double rel_err(const linalg::Vector& a, const linalg::Vector& b) {
  return linalg::norm2(linalg::vsub(a, b)) / linalg::norm2(b);
}

/// The naive reference both Bayesian solvers are judged against: ordinary
/// least squares restricted to the true support (exact on noiseless data).
linalg::Vector oracle_solution(const linalg::Matrix& dict,
                               const linalg::Vector& y,
                               const linalg::Vector& truth) {
  std::vector<std::size_t> support;
  for (std::size_t j = 0; j < truth.size(); ++j) {
    if (truth[j] != 0.0) support.push_back(j);
  }
  linalg::Matrix sub(dict.rows(), support.size());
  for (std::size_t i = 0; i < dict.rows(); ++i) {
    for (std::size_t c = 0; c < support.size(); ++c) {
      sub(i, c) = dict(i, support[c]);
    }
  }
  const auto coeffs = linalg::lstsq(sub, y);
  linalg::Vector full(truth.size(), 0.0);
  for (std::size_t c = 0; c < support.size(); ++c) full[support[c]] = coeffs[c];
  return full;
}

/// A band-limited test frame: a few low-frequency DCT atoms.
linalg::Vector bandlimited_frame(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector coeffs(n, 0.0);
  for (std::size_t k = 1; k < 20 && k < n; ++k) {
    coeffs[k] = rng.gaussian() / (1.0 + 0.3 * static_cast<double>(k));
  }
  return cs::dct_inverse(coeffs);
}

}  // namespace

// --- Registry dispatch and error contracts ---------------------------------

TEST(SolverRegistry, BuiltinsAreRegisteredWithStableCodes) {
  auto& reg = cs::SolverRegistry::instance();
  // Codes follow registration order.
  const std::vector<std::pair<std::string, int>> expected = {
      {"omp", 0},      {"iht", 1},  {"ista", 2},
      {"bsbl", 3},     {"amp", 4},  {"compressed_domain", 5}};
  for (const auto& [id, code] : expected) {
    EXPECT_TRUE(reg.contains(id)) << id;
    EXPECT_EQ(reg.get(id).id(), id);
    EXPECT_EQ(reg.code_of(id), code) << id;
    EXPECT_EQ(reg.id_of_code(code), id) << code;
    EXPECT_FALSE(reg.get(id).description().empty()) << id;
  }
  // list() is sorted by id and covers at least the built-ins.
  const auto list = reg.list();
  ASSERT_GE(list.size(), expected.size());
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1]->id(), list[i]->id());
  }
}

TEST(SolverRegistry, UnknownIdAndCodeAreHardErrorsListingKnownIds) {
  auto& reg = cs::SolverRegistry::instance();
  try {
    reg.get("no_such_solver");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown solver 'no_such_solver'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("bsbl"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered solvers"), std::string::npos) << msg;
  }
  EXPECT_EQ(reg.find("no_such_solver"), nullptr);
  EXPECT_THROW((void)reg.code_of("no_such_solver"), Error);
  EXPECT_THROW((void)reg.id_of_code(9999), Error);
}

namespace {

class DummySolver : public cs::SparseSolver {
 public:
  explicit DummySolver(std::string id) : id_(std::move(id)) {}
  std::string id() const override { return id_; }
  std::string description() const override { return "test dummy"; }
  std::shared_ptr<const cs::PreparedSolver> prepare(
      linalg::Matrix, const cs::SolverOptions&) const override {
    throw Error("dummy never prepares");
  }

 private:
  std::string id_;
};

}  // namespace

TEST(SolverRegistry, DuplicateIdIsRejectedAndNewIdsGetFreshCodes) {
  auto& reg = cs::SolverRegistry::instance();
  try {
    reg.add(std::make_unique<DummySolver>("omp"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("already registered"),
              std::string::npos);
  }
  // A novel id registers and receives the next registration-order code.
  reg.add(std::make_unique<DummySolver>("zz_test_dummy"));
  EXPECT_TRUE(reg.contains("zz_test_dummy"));
  EXPECT_EQ(reg.code_of("zz_test_dummy"), 6);
  EXPECT_EQ(reg.id_of_code(6), "zz_test_dummy");
}

TEST(SolverRegistry, CompressedDomainNeverPreparesADictionary) {
  const auto& solver = cs::SolverRegistry::instance().get("compressed_domain");
  EXPECT_FALSE(solver.reconstructs());
  EXPECT_THROW((void)solver.prepare(gaussian_dict(8, 16, 1), {}), Error);

  // The Reconstructor facade rejects it at construction (the architecture
  // layer must route to a measurement-domain decoder instead).
  const auto phi = cs::SparseBinaryMatrix::generate(16, 64, 2, 7);
  cs::ReconstructorConfig cfg;
  cfg.solver = "compressed_domain";
  EXPECT_THROW(cs::Reconstructor(phi, {1.0, 0.0}, cfg), Error);
}

// --- Seed-pinned IHT / ISTA recovery ---------------------------------------

TEST(SolverRecovery, IhtRecoversSupportOnEasyProblems) {
  const std::size_t m = 64, k = 128, nnz = 3;
  const auto& solver = cs::SolverRegistry::instance().get("iht");
  // IHT's greedy thresholding can lock onto one coherent off-support atom,
  // so individual seed-pinned instances may fail; the pinned property is
  // the recovery *rate* over the fixed seed set, and that every recovered
  // support yields a near-exact solve.
  std::size_t recovered = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto dict = gaussian_dict(m, k, 100 + seed);
    auto truth = sparse_vector(k, nnz, 200 + seed);
    for (auto& v : truth) {
      if (v != 0.0) v = (v > 0.0 ? 1.0 : -1.0) * (2.0 + std::abs(v));
    }
    const auto y = linalg::matvec(dict, truth);
    cs::SolverOptions opts;
    opts.sparsity = nnz;
    opts.max_iters = 2000;  // the safe 1/||D||_F^2 step converges slowly
    const auto sol = solver.prepare(dict, opts)->solve(y);
    bool support_ok = true;
    for (std::size_t j = 0; j < k; ++j) {
      if ((sol.coefficients[j] != 0.0) != (truth[j] != 0.0)) support_ok = false;
    }
    if (!support_ok) continue;
    EXPECT_LT(rel_err(sol.coefficients, truth), 1e-3) << "seed " << seed;
    ++recovered;
  }
  EXPECT_GE(recovered, 5u) << recovered << "/8 supports recovered";
}

TEST(SolverRecovery, IstaResidualIsMonotoneInIterationBudget) {
  const std::size_t m = 64, k = 128;
  const auto dict = gaussian_dict(m, k, 301);
  const auto truth = sparse_vector(k, 6, 302);
  const auto y = linalg::matvec(dict, truth);
  const auto& solver = cs::SolverRegistry::instance().get("ista");
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t iters : {5u, 10u, 20u, 40u, 80u}) {
    cs::SolverOptions opts;
    opts.max_iters = iters;
    opts.residual_tol = 0.0;  // run the full budget
    const auto sol = solver.prepare(dict, opts)->solve(y);
    const auto fit = linalg::matvec(dict, sol.coefficients);
    const double res = linalg::norm2(linalg::vsub(y, fit));
    EXPECT_LE(res, prev + 1e-9) << iters << " iters";
    prev = res;
  }
  // And the budgeted solve actually shrinks the residual substantially.
  EXPECT_LT(prev, 0.5 * linalg::norm2(y));
}

// --- BSBL / AMP versus the naive oracle on 50 seed-pinned problems ---------

TEST(SolverRecovery, BsblMatchesOracleOn50BlockSparseProblems) {
  const std::size_t m = 64, k = 128, block = 8, active = 2;
  const auto& solver = cs::SolverRegistry::instance().get("bsbl");
  std::size_t hits = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto dict = gaussian_dict(m, k, 1000 + seed);
    const auto truth = block_sparse_vector(k, block, active, 2000 + seed);
    const auto y = linalg::matvec(dict, truth);
    const auto oracle = oracle_solution(dict, y, truth);
    // Noiseless: the oracle least squares is exact.
    ASSERT_LT(rel_err(oracle, truth), 1e-8) << "seed " << seed;

    cs::SolverOptions opts;
    opts.residual_tol = 1e-6;
    opts.max_iters = 200;
    const auto sol = solver.prepare(dict, opts)->solve(y);
    if (rel_err(sol.coefficients, oracle) < 1e-2) ++hits;
  }
  EXPECT_GE(hits, 47u) << hits << "/50 within 1% of the oracle";
}

TEST(SolverRecovery, AmpApproachesOracleOn50SparseProblems) {
  const std::size_t m = 64, k = 128, nnz = 6;
  const auto& solver = cs::SolverRegistry::instance().get("amp");
  std::size_t hits = 0;
  double worst = 0.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto dict = gaussian_dict(m, k, 3000 + seed);
    const auto truth = sparse_vector(k, nnz, 4000 + seed);
    const auto y = linalg::matvec(dict, truth);
    const auto oracle = oracle_solution(dict, y, truth);

    cs::SolverOptions opts;
    opts.residual_tol = 1e-5;
    opts.max_iters = 300;
    const auto sol = solver.prepare(dict, opts)->solve(y);
    const double err = rel_err(sol.coefficients, oracle);
    worst = std::max(worst, err);
    if (err < 0.1) ++hits;
  }
  EXPECT_GE(hits, 45u) << hits << "/50 within 10% of the oracle (worst "
                       << worst << ")";
}

TEST(SolverRecovery, BsblAndAmpAreDeterministic) {
  const auto dict = gaussian_dict(48, 96, 11);
  const auto y = linalg::matvec(dict, sparse_vector(96, 5, 12));
  for (const char* id : {"bsbl", "amp"}) {
    const auto prepared =
        cs::SolverRegistry::instance().get(id).prepare(dict, {});
    const auto a = prepared->solve(y);
    const auto b = prepared->solve(y);
    ASSERT_EQ(a.coefficients.size(), b.coefficients.size());
    for (std::size_t j = 0; j < a.coefficients.size(); ++j) {
      EXPECT_EQ(a.coefficients[j], b.coefficients[j]) << id;
    }
  }
}

// --- BSBL bitwise goldens --------------------------------------------------
// FNV-1a digests of bsbl_solve's coefficient bits, residual bits and
// iteration count, recorded from the straightforward per-atom BO loop (one
// solve_lower per atom, tr(Sigma_y^-1) from unit vectors) before it was
// rewritten around the active-set Sigma_y. The rewrite keeps every value's
// floating-point operation sequence, so any reordered sum, contracted
// multiply-add or skipped nonzero term moves these digests.

namespace {

std::uint64_t bsbl_digest(const cs::BsblResult& r) {
  std::uint64_t h = serve::fnv1a_bytes(
      r.coefficients.data(), r.coefficients.size() * sizeof(double));
  h = serve::fnv1a_update(h, &r.residual_norm, sizeof(double));
  const std::uint64_t iters = r.iterations;
  return serve::fnv1a_update(h, &iters, sizeof(iters));
}

/// Blocks of `block_size` atoms holding at least one nonzero coefficient.
std::size_t live_blocks(const linalg::Vector& x, std::size_t block_size) {
  std::set<std::size_t> live;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0.0) live.insert(j / block_size);
  }
  return live.size();
}

/// A noisy chain frame at the paper's M = 75: the charge-sharing s-SRBM
/// (N = 384, s = 2) times the DCT basis truncated to the reconstructor's
/// automatic 0.85*M atoms, and a band-limited frame plus white noise at
/// about 10% of the measurement RMS — the regime in which BSBL runs to its
/// iteration cap on chain EEG frames.
struct NoisyChainFrame {
  linalg::Matrix dictionary;
  linalg::Vector y;
};

NoisyChainFrame noisy_chain_frame() {
  const std::size_t m = 75, n = 384, atoms = 63;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 9);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  const auto psi = cs::dct_synthesis_matrix(n);
  linalg::Matrix psi_trunc(n, atoms);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < atoms; ++k) psi_trunc(r, k) = psi(r, k);
  }
  NoisyChainFrame f;
  f.dictionary = cs::effective_dictionary(phi, gains.a, gains.b, psi_trunc);
  const auto w = cs::effective_entry_weights(phi, gains.a, gains.b);
  f.y = phi.csr().apply(bandlimited_frame(n, 77), w);
  const double rms =
      linalg::norm2(f.y) / std::sqrt(static_cast<double>(f.y.size()));
  Rng rng(78);
  for (double& v : f.y) v += 0.1 * rms * rng.gaussian();
  return f;
}

}  // namespace

TEST(BsblGolden, LearnedAndFixedLambda) {
  const auto dict = gaussian_dict(48, 96, 41);
  auto y = linalg::matvec(dict, block_sparse_vector(96, 8, 3, 42));
  Rng rng(43);
  for (double& v : y) v += 0.05 * rng.gaussian();

  const auto learned = cs::bsbl_solve(dict, y);
  EXPECT_EQ(bsbl_digest(learned), 0x115d1e6b2b2ec06fULL);

  cs::BsblOptions fixed;
  fixed.lambda = 2.5e-3;
  const auto pinned = cs::bsbl_solve(dict, y, fixed);
  EXPECT_EQ(bsbl_digest(pinned), 0xb7bd2bf40810e0baULL);
}

TEST(BsblGolden, HeavyPruningDownToFewBlocks) {
  const auto dict = gaussian_dict(64, 128, 1007);
  const auto y = linalg::matvec(dict, block_sparse_vector(128, 8, 2, 2007));
  cs::BsblOptions opts;
  opts.residual_tol = 1e-6;
  opts.max_iters = 200;
  const auto res = cs::bsbl_solve(dict, y, opts);
  const std::size_t live = live_blocks(res.coefficients, 8);
  EXPECT_GE(live, 1u);
  EXPECT_LE(live, 3u);
  EXPECT_EQ(bsbl_digest(res), 0x3a1cc80db0c77244ULL);
}

TEST(BsblGolden, AtomCountNotAMultipleOfBlockSize) {
  const auto dict = gaussian_dict(40, 83, 51);
  const auto y = linalg::matvec(dict, block_sparse_vector(83, 6, 3, 52));
  cs::BsblOptions opts;
  opts.block_size = 6;  // 13 full blocks and a 5-atom tail
  const auto res = cs::bsbl_solve(dict, y, opts);
  EXPECT_EQ(bsbl_digest(res), 0xb6fbf8707f10e6f5ULL);
}

TEST(BsblGolden, ZeroMeasurementsGiveZeroFrame) {
  const auto dict = gaussian_dict(32, 64, 61);
  const auto res = cs::bsbl_solve(dict, linalg::Vector(32, 0.0));
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(res.residual_norm, 0.0);
  for (double c : res.coefficients) EXPECT_EQ(c, 0.0);
  EXPECT_EQ(bsbl_digest(res), 0x5be53abc266c8c65ULL);
}

TEST(BsblGolden, SmallIterationCap) {
  const auto dict = gaussian_dict(48, 96, 71);
  const auto y = linalg::matvec(dict, block_sparse_vector(96, 8, 4, 72));
  cs::BsblOptions opts;
  opts.max_iters = 3;
  const auto res = cs::bsbl_solve(dict, y, opts);
  EXPECT_EQ(res.iterations, 3u);
  EXPECT_EQ(bsbl_digest(res), 0x4698070e5867b8dbULL);
}

TEST(BsblGolden, NoisyChainFrameRunsToTheIterationCap) {
  const auto f = noisy_chain_frame();
  cs::BsblOptions opts;
  opts.residual_tol = 0.02;  // the chain reconstructor's tolerance
  const auto res = cs::bsbl_solve(f.dictionary, f.y, opts);
  EXPECT_EQ(res.iterations, opts.max_iters);
  EXPECT_EQ(bsbl_digest(res), 0xbe4c2e95c5c5cfcbULL);
}

TEST(BsblGolden, NonFiniteSigmaYThrows) {
  // A NaN atom makes Sigma_y non-SPD; the Cholesky refuses it.
  auto dict = gaussian_dict(24, 48, 81);
  dict(3, 5) = std::numeric_limits<double>::quiet_NaN();
  const auto y = linalg::matvec(gaussian_dict(24, 48, 82),
                                sparse_vector(48, 4, 83));
  EXPECT_THROW(cs::bsbl_solve(dict, y), Error);
}

// --- Solver-keyed reconstructor cache --------------------------------------

TEST(SolverCache, DistinctSolversNeverShareACacheEntry) {
  auto& cache = arch::ReconstructorCache::instance();
  cache.clear();
  power::DesignParams design;
  design.cs_m = 32;
  design.cs_n_phi = 128;
  const arch::ChainSeeds seeds;

  cs::ReconstructorConfig omp_cfg;
  omp_cfg.residual_tol = 0.02;
  cs::ReconstructorConfig bsbl_cfg = omp_cfg;
  bsbl_cfg.solver = "bsbl";

  const auto a = cache.get(design, seeds, omp_cfg);
  const auto b = cache.get(design, seeds, bsbl_cfg);
  EXPECT_NE(a.get(), b.get());  // same design+seeds, different solver
  EXPECT_EQ(cache.size(), 2u);

  // Same config hits the same entry.
  EXPECT_EQ(cache.get(design, seeds, omp_cfg).get(), a.get());
  EXPECT_EQ(cache.get(design, seeds, bsbl_cfg).get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
}

// --- Journals refuse foreign-solver results --------------------------------

TEST(SolverDigest, ScenarioDigestIsSolverSensitive) {
  const char* tmpl = R"({
    "name": "digest-probe",
    "base": {"cs_m": 75},
    "eval": {"residual_tol": 0.02, "solver": "%s"},
    "sweep": {"segments": 2, "train_segments": 4, "seed": 7}
  })";
  auto spec_for = [&](const std::string& solver) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), tmpl, solver.c_str());
    return arch::scenario_from_json(buf);
  };
  const auto omp = spec_for("omp");
  const auto bsbl = spec_for("bsbl");
  EXPECT_NE(omp.digest(), bsbl.digest());
  // Explicit "omp" digests the same as the implicit default.
  auto implicit = omp;
  implicit.recon.solver.clear();
  EXPECT_EQ(implicit.digest(), omp.digest());
}

TEST(SolverDigest, EvaluatorConfigDigestIsSolverSensitive) {
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto dataset = eeg::make_dataset(gen, 1, 1, 909);
  const auto detector = classify::EpilepsyDetector::train(
      eeg::make_dataset(gen, 2, 2, 910), [] {
        classify::DetectorConfig cfg;
        cfg.train.epochs = 3;
        return cfg;
      }());

  core::EvalOptions omp_opt;
  omp_opt.recon.residual_tol = 0.02;
  core::EvalOptions bsbl_opt = omp_opt;
  bsbl_opt.recon.solver = "bsbl";
  core::EvalOptions bad_opt = omp_opt;
  bad_opt.recon.solver = "no_such_solver";

  const core::Evaluator a(power::TechnologyParams{}, &dataset, &detector,
                          omp_opt);
  const core::Evaluator b(power::TechnologyParams{}, &dataset, &detector,
                          bsbl_opt);
  // Only the solver differs, so a journal written by one refuses the other.
  EXPECT_NE(a.config_digest(), b.config_digest());
  // Unknown solvers fail at evaluator construction, not at point N.
  EXPECT_THROW(core::Evaluator(power::TechnologyParams{}, &dataset, &detector,
                               bad_opt),
               Error);
}

// --- Lane path: the scalar solve_multi fallback is bit-identical -----------

TEST(SolverLanes, FallbackSolveMultiIsBitIdenticalPerLane) {
  const auto dict = gaussian_dict(48, 96, 21);
  std::vector<linalg::Vector> ys;
  for (std::uint64_t s = 0; s < 3; ++s) {
    ys.push_back(linalg::matvec(dict, sparse_vector(96, 5, 30 + s)));
  }
  for (const char* id : {"bsbl", "amp", "iht", "ista"}) {
    const auto prepared =
        cs::SolverRegistry::instance().get(id).prepare(dict, {});
    const auto multi = prepared->solve_multi(ys);
    ASSERT_EQ(multi.size(), ys.size()) << id;
    for (std::size_t l = 0; l < ys.size(); ++l) {
      const auto single = prepared->solve(ys[l]);
      ASSERT_EQ(multi[l].coefficients.size(), single.coefficients.size());
      for (std::size_t j = 0; j < single.coefficients.size(); ++j) {
        EXPECT_EQ(multi[l].coefficients[j], single.coefficients[j])
            << id << " lane " << l;
      }
    }
  }
}

TEST(SolverLanes, BsblStreamMultiMatchesPerLaneStreams) {
  const std::size_t n = 96, m = 48, frames = 2, lanes = 2;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 71);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
  cfg.solver = "bsbl";
  const cs::Reconstructor rec(phi, gains, cfg);
  const auto w = cs::effective_entry_weights(phi, gains.a, gains.b);

  std::vector<linalg::Vector> streams(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::uint64_t f = 0; f < frames; ++f) {
      const auto y = phi.csr().apply(bandlimited_frame(n, 10 * l + f), w);
      streams[l].insert(streams[l].end(), y.begin(), y.end());
    }
  }
  std::vector<const double*> rows;
  for (const auto& s : streams) rows.push_back(s.data());

  // The lane path rides the default scalar solve_multi: out[l] must equal
  // the per-lane stream bit for bit.
  const auto multi = rec.reconstruct_stream_multi(rows, streams[0].size());
  ASSERT_EQ(multi.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto single = rec.reconstruct_stream(streams[l]);
    ASSERT_EQ(multi[l].size(), single.size()) << "lane " << l;
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(multi[l][i], single[i]) << "lane " << l << " sample " << i;
    }
  }
}
