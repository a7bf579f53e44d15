// Reconstruction algorithms: OMP exact/noisy recovery, IHT/ISTA baselines,
// and the frame-wise Reconstructor facade with charge-sharing compensation.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "cs/basis.hpp"
#include "cs/effective.hpp"
#include "cs/iterative.hpp"
#include "cs/omp.hpp"
#include "cs/reconstructor.hpp"
#include "dsp/metrics.hpp"
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

double rel_err(const linalg::Vector& a, const linalg::Vector& b) {
  return linalg::norm2(linalg::vsub(a, b)) / linalg::norm2(b);
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

class OmpRecovery : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OmpRecovery, ExactOnNoiselessSparseProblems) {
  const auto [m, k, nnz] = GetParam();
  const auto dict = gaussian_dict(m, k, 100 + m);
  const auto x0 = sparse_vector(k, nnz, 200 + nnz);
  const auto y = linalg::matvec(dict, x0);
  const auto r = cs::omp_solve(dict, y, {.max_atoms = static_cast<std::size_t>(2 * nnz),
                                         .residual_tol = 1e-10});
  EXPECT_LT(rel_err(r.coefficients, x0), 1e-8);
  EXPECT_LE(r.support.size(), static_cast<std::size_t>(2 * nnz));
}

INSTANTIATE_TEST_SUITE_P(Problems, OmpRecovery,
                         ::testing::Values(std::tuple{40, 120, 5},
                                           std::tuple{64, 256, 8},
                                           std::tuple{30, 60, 4},
                                           std::tuple{96, 384, 12}));

TEST(Omp, StopsAtResidualTolerance) {
  const auto dict = gaussian_dict(50, 200, 3);
  const auto x0 = sparse_vector(200, 6, 4);
  auto y = linalg::matvec(dict, x0);
  Rng rng(5);
  for (auto& v : y) v += rng.gaussian(0.0, 0.01);
  const auto r = cs::omp_solve(dict, y, {.max_atoms = 25, .residual_tol = 0.1});
  EXPECT_LT(r.iterations, 25u);  // tolerance reached before the cap
  EXPECT_LE(r.residual_norm, 0.1 * linalg::norm2(y) + 1e-12);
}

TEST(Omp, ZeroMeasurementGivesZero) {
  const auto dict = gaussian_dict(20, 50, 7);
  const auto r = cs::omp_solve(dict, linalg::Vector(20, 0.0));
  for (double v : r.coefficients) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Omp, HandlesDuplicateAtomsGracefully) {
  // Two identical atoms: OMP must not crash on the singular Gram update.
  linalg::Matrix dict(10, 3);
  Rng rng(11);
  for (std::size_t i = 0; i < 10; ++i) {
    const double v = rng.gaussian();
    dict(i, 0) = v;
    dict(i, 1) = v;  // duplicate
    dict(i, 2) = rng.gaussian();
  }
  const auto y = dict.column(0);
  const auto r = cs::omp_solve(dict, y, {.max_atoms = 3, .residual_tol = 1e-12});
  EXPECT_LT(r.residual_norm, 1e-10);
}

TEST(Omp, WrongSizeThrows) {
  const auto dict = gaussian_dict(20, 50, 7);
  EXPECT_THROW(cs::omp_solve(dict, linalg::Vector(19, 0.0)), Error);
}

TEST(Iht, RecoversSparseVector) {
  const auto dict = gaussian_dict(60, 150, 21);
  const auto x0 = sparse_vector(150, 5, 22);
  const auto y = linalg::matvec(dict, x0);
  const auto x = cs::iht_solve(dict, y, {.sparsity = 5, .max_iters = 500});
  EXPECT_LT(rel_err(x, x0), 0.05);
}

TEST(Ista, ShrinksTowardSparseSolution) {
  const auto dict = gaussian_dict(60, 150, 31);
  const auto x0 = sparse_vector(150, 5, 32);
  const auto y = linalg::matvec(dict, x0);
  const auto x = cs::ista_solve(dict, y, {.max_iters = 800});
  // ISTA is biased; just require substantial recovery.
  EXPECT_LT(rel_err(x, x0), 0.5);
  std::size_t nnz = 0;
  for (double v : x) {
    if (v != 0.0) ++nnz;
  }
  EXPECT_LT(nnz, 100u);  // sparsity-inducing
}

TEST(Iterative, ShapeChecks) {
  const auto dict = gaussian_dict(10, 20, 41);
  EXPECT_THROW(cs::iht_solve(dict, linalg::Vector(9, 0.0)), Error);
  EXPECT_THROW(cs::ista_solve(dict, linalg::Vector(9, 0.0)), Error);
}

// --- Reconstructor facade ----------------------------------------------------

TEST(Reconstructor, RecoversBandlimitedFrameFromIdealMeasurements) {
  const std::size_t n = 384, m = 96;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 77);
  const auto x = bandlimited_frame(n, 5);
  const auto y = phi.apply(x);
  cs::ReconstructorConfig cfg;
  cfg.compensate_decay = false;
  const cs::Reconstructor rec(phi, {1.0, 0.0}, cfg);
  const auto xr = rec.reconstruct_frame(y);
  EXPECT_GT(dsp::snr_vs_reference_db(x, xr), 20.0);
}

TEST(Reconstructor, CompensatesChargeSharingDecay) {
  const std::size_t n = 384, m = 96;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 78);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  const auto eff = cs::effective_matrix(phi, gains.a, gains.b);
  const auto x = bandlimited_frame(n, 6);
  const auto y = linalg::matvec(eff, x);

  cs::ReconstructorConfig with;  // compensate_decay = true
  const cs::Reconstructor rec_comp(phi, gains, with);
  cs::ReconstructorConfig without = with;
  without.compensate_decay = false;
  const cs::Reconstructor rec_naive(phi, gains, without);

  const double snr_comp = dsp::snr_vs_reference_db(x, rec_comp.reconstruct_frame(y));
  const double snr_naive = dsp::snr_vs_reference_db(x, rec_naive.reconstruct_frame(y));
  EXPECT_GT(snr_comp, 15.0);
  EXPECT_GT(snr_comp, snr_naive + 6.0);  // compensation matters a lot
}

TEST(Reconstructor, AutoTruncationUsesLowBand) {
  const auto phi = cs::SparseBinaryMatrix::generate(100, 384, 2, 79);
  const cs::Reconstructor rec(phi, {1.0, 0.0});
  EXPECT_EQ(rec.active_atoms(), 85u);  // 0.85 * M
  cs::ReconstructorConfig full;
  full.basis_atoms = 384;
  const cs::Reconstructor rec_full(phi, {1.0, 0.0}, full);
  EXPECT_EQ(rec_full.active_atoms(), 384u);
}

TEST(Reconstructor, StreamProcessesWholeFrames) {
  const std::size_t n = 64, m = 16;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 80);
  cs::ReconstructorConfig cfg;
  cfg.compensate_decay = false;
  const cs::Reconstructor rec(phi, {1.0, 0.0}, cfg);
  // 2 full frames + 5 stray measurements -> 2*64 output samples.
  std::vector<double> meas(2 * m + 5, 0.1);
  const auto out = rec.reconstruct_stream(meas);
  EXPECT_EQ(out.size(), 2 * n);
}

TEST(Reconstructor, FrameSizeMismatchThrows) {
  const auto phi = cs::SparseBinaryMatrix::generate(16, 64, 2, 81);
  const cs::Reconstructor rec(phi, {1.0, 0.0});
  EXPECT_THROW(rec.reconstruct_frame(linalg::Vector(15, 0.0)), Error);
}

class ReconAlgos : public ::testing::TestWithParam<std::string> {};

TEST_P(ReconAlgos, AllAlgorithmsRecoverSomething) {
  const std::size_t n = 256, m = 128;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 90);
  const auto x = bandlimited_frame(n, 9);
  const auto y = phi.apply(x);
  cs::ReconstructorConfig cfg;
  cfg.solver = GetParam();
  cfg.compensate_decay = false;
  cfg.max_iters = 300;
  const cs::Reconstructor rec(phi, {1.0, 0.0}, cfg);
  const auto xr = rec.reconstruct_frame(y);
  EXPECT_GT(dsp::snr_vs_reference_db(x, xr), 5.0)
      << "solver " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ReconAlgos,
                         ::testing::Values("omp", "iht", "ista"));

// ---------------------------------------------------------------------------
// Batch-OMP vs naive-OMP equivalence: the Gram-based fast path must select
// the same atoms and produce the same coefficients/residual as the
// residual-recorrelation reference oracle.

#include "util/thread_pool.hpp"

TEST(OmpBatch, MatchesNaiveOn50RandomProblems) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = 20 + static_cast<std::size_t>(rng.below(80));
    const auto k = m + 10 + static_cast<std::size_t>(rng.below(3 * m));
    const auto nnz = 2 + static_cast<std::size_t>(rng.below(m / 5 + 1));
    const auto dict = gaussian_dict(m, k, 1000 + static_cast<std::uint64_t>(trial));
    const auto x0 = sparse_vector(k, nnz, 2000 + static_cast<std::uint64_t>(trial));
    auto y = linalg::matvec(dict, x0);
    if (trial % 2 == 1) {  // half the problems get measurement noise
      for (auto& v : y) v += 0.02 * rng.gaussian();
    }
    cs::OmpOptions opts;
    opts.max_atoms = 2 * nnz;
    opts.residual_tol = (trial % 3 == 0) ? 1e-10 : 0.05;

    opts.mode = cs::OmpMode::Naive;
    const auto naive = cs::omp_solve(dict, y, opts);
    opts.mode = cs::OmpMode::Batch;
    const auto batch = cs::omp_solve(dict, y, opts);

    ASSERT_EQ(batch.support, naive.support) << "trial " << trial;
    EXPECT_EQ(batch.iterations, naive.iterations) << "trial " << trial;
    const double scale = 1.0 + linalg::norm2(naive.coefficients);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(batch.coefficients[i], naive.coefficients[i], 1e-9 * scale)
          << "trial " << trial << " atom " << i;
    }
    EXPECT_NEAR(batch.residual_norm, naive.residual_norm,
                1e-9 * (1.0 + naive.residual_norm))
        << "trial " << trial;
  }
}

TEST(OmpBatch, GramIsOnlyBuiltInBatchMode) {
  const auto dict = gaussian_dict(30, 90, 77);
  const cs::OmpSolver batch(dict, {.mode = cs::OmpMode::Batch});
  const cs::OmpSolver naive(dict, {.mode = cs::OmpMode::Naive});
  EXPECT_EQ(batch.gram_matrix().rows(), 90u);
  EXPECT_EQ(batch.gram_matrix().cols(), 90u);
  EXPECT_EQ(naive.gram_matrix().rows(), 0u);
}

TEST(Reconstructor, BatchMatchesNaiveOnChargeSharingFrames) {
  const std::size_t n = 384, m = 100;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 55);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
  cfg.omp_mode = cs::OmpMode::Batch;
  const cs::Reconstructor rec_batch(phi, gains, cfg);
  cfg.omp_mode = cs::OmpMode::Naive;
  const cs::Reconstructor rec_naive(phi, gains, cfg);
  const auto w = cs::effective_entry_weights(phi, gains.a, gains.b);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto x = bandlimited_frame(n, 60 + seed);
    const auto y = phi.csr().apply(x, w);
    const auto xb = rec_batch.reconstruct_frame(y);
    const auto xn = rec_naive.reconstruct_frame(y);
    double scale = 1.0;
    for (double v : xn) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(xb[i], xn[i], 1e-9 * scale) << "frame " << seed;
    }
  }
}

TEST(Reconstructor, StreamWithThreadPoolIsBitwiseSerial) {
  const std::size_t n = 128, m = 64, frames = 6;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 71);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
  const cs::Reconstructor rec(phi, gains, cfg);
  const auto w = cs::effective_entry_weights(phi, gains.a, gains.b);
  linalg::Vector stream;
  for (std::uint64_t f = 0; f < frames; ++f) {
    const auto y = phi.csr().apply(bandlimited_frame(n, 80 + f), w);
    stream.insert(stream.end(), y.begin(), y.end());
  }
  const auto serial = rec.reconstruct_stream(stream);
  ThreadPool pool(2);
  const auto pooled = rec.reconstruct_stream(stream, &pool);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pooled[i], serial[i]);
  }
}

TEST(OmpBatch, SolveMultiMatchesPerLaneSolves) {
  // The multi-RHS entry point of the batched Monte-Carlo engine: K lanes
  // solved against one shared Gram must be bit-identical to K independent
  // solve() calls, in both modes.
  Rng rng(9119);
  const auto dict = gaussian_dict(40, 140, 3131);
  for (const auto mode : {cs::OmpMode::Batch, cs::OmpMode::Naive}) {
    const cs::OmpSolver solver(dict, {.max_atoms = 12,
                                      .residual_tol = 0.02,
                                      .mode = mode});
    std::vector<linalg::Vector> ys;
    for (int lane = 0; lane < 6; ++lane) {
      auto y = linalg::matvec(dict, sparse_vector(140, 5, 500 + lane));
      for (auto& v : y) v += 0.02 * rng.gaussian();
      ys.push_back(std::move(y));
    }
    ys.push_back(linalg::Vector(40, 0.0));  // zero lane: early-return path

    const auto multi = solver.solve_multi(ys);
    ASSERT_EQ(multi.size(), ys.size());
    for (std::size_t l = 0; l < ys.size(); ++l) {
      const auto single = solver.solve(ys[l]);
      EXPECT_EQ(multi[l].support, single.support) << "lane " << l;
      EXPECT_EQ(multi[l].iterations, single.iterations) << "lane " << l;
      ASSERT_EQ(multi[l].coefficients.size(), single.coefficients.size());
      for (std::size_t i = 0; i < single.coefficients.size(); ++i) {
        EXPECT_EQ(multi[l].coefficients[i], single.coefficients[i])
            << "lane " << l << " atom " << i;
      }
      EXPECT_EQ(multi[l].residual_norm, single.residual_norm) << "lane " << l;
    }
  }
}

TEST(OmpBatch, SolveMultiValidatesShapes) {
  const auto dict = gaussian_dict(30, 90, 77);
  const cs::OmpSolver solver(dict, {.mode = cs::OmpMode::Batch});
  EXPECT_TRUE(solver.solve_multi({}).empty());
  EXPECT_THROW(solver.solve_multi({linalg::Vector(29, 0.0)}), Error);
}

TEST(Reconstructor, StreamMultiMatchesPerLaneStreams) {
  const std::size_t n = 128, m = 64, frames = 4, lanes = 3;
  const auto phi = cs::SparseBinaryMatrix::generate(m, n, 2, 71);
  const auto gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  cs::ReconstructorConfig cfg;
  cfg.residual_tol = 0.02;
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

  const auto multi = rec.reconstruct_stream_multi(rows, streams[0].size());
  ASSERT_EQ(multi.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto single = rec.reconstruct_stream(streams[l]);
    ASSERT_EQ(multi[l].size(), single.size()) << "lane " << l;
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(multi[l][i], single[i]) << "lane " << l;
    }
  }

  // And bit-identical again when frames fan out over a pool.
  ThreadPool pool(2);
  const auto pooled = rec.reconstruct_stream_multi(rows, streams[0].size(),
                                                   &pool);
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_EQ(pooled[l].size(), multi[l].size());
    for (std::size_t i = 0; i < multi[l].size(); ++i) {
      EXPECT_EQ(pooled[l][i], multi[l][i]);
    }
  }
}
