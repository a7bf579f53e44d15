// Unit and property tests for the dense linear-algebra substrate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/decompositions.hpp"
#include "linalg/lane_kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace efficsense;
using linalg::Matrix;
using linalg::Vector;

namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (auto& v : m.data()) v = rng.gaussian();
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, IdentityAndMatmul) {
  const auto a = random_matrix(5, 5, 1);
  const auto i = Matrix::identity(5);
  EXPECT_LT(max_abs_diff(linalg::matmul(a, i), a), 1e-14);
  EXPECT_LT(max_abs_diff(linalg::matmul(i, a), a), 1e-14);
}

TEST(Matrix, FromRowsAndRagged) {
  const auto m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), Error);
}

TEST(Matrix, TransposeInvolution) {
  const auto a = random_matrix(4, 7, 2);
  EXPECT_LT(max_abs_diff(a.transposed().transposed(), a), 1e-15);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  const auto a = Matrix::from_rows({{1, 2}, {3, 4}});
  const auto b = Matrix::from_rows({{5, 6}, {7, 8}});
  const auto c = linalg::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  const auto a = random_matrix(6, 9, 3);
  const auto x = random_vector(6, 4);
  const auto y1 = linalg::matvec_transposed(a, x);
  const auto y2 = linalg::matvec(a.transposed(), x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Matrix, ShapeMismatchThrows) {
  const auto a = random_matrix(3, 4, 5);
  EXPECT_THROW(linalg::matvec(a, Vector(3)), Error);
  EXPECT_THROW(linalg::matmul(a, a), Error);
  Matrix b(2, 2);
  EXPECT_THROW(b += a, Error);
}

TEST(Matrix, ColumnRoundTrip) {
  auto a = random_matrix(4, 3, 6);
  const Vector c{9, 8, 7, 6};
  a.set_column(1, c);
  EXPECT_EQ(a.column(1), c);
}

TEST(Matrix, ArithmeticOperators) {
  const auto a = Matrix::from_rows({{1, 2}, {3, 4}});
  const auto b = Matrix::from_rows({{4, 3}, {2, 1}});
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
  const auto d = a - b;
  EXPECT_DOUBLE_EQ(d(0, 0), -3.0);
  const auto m = a * 2.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
}

TEST(Vector, DotAndNorms) {
  const Vector a{3, 4};
  EXPECT_DOUBLE_EQ(linalg::dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(linalg::norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(linalg::norm_inf(Vector{-7, 2}), 7.0);
}

TEST(Vector, AxpyAndElementwise) {
  const Vector x{1, 2, 3};
  const Vector y{10, 10, 10};
  const auto z = linalg::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(z[2], 16.0);
  EXPECT_DOUBLE_EQ(linalg::vsub(y, x)[0], 9.0);
  EXPECT_DOUBLE_EQ(linalg::vadd(y, x)[1], 12.0);
  EXPECT_DOUBLE_EQ(linalg::scaled(x, -1.0)[0], -1.0);
}

// --- Decompositions ----------------------------------------------------------

class QrProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrProperty, ReconstructsAndOrthogonal) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(m, n, 100 + m * 31 + n);
  const auto qr = linalg::qr_decompose(a);
  // A = Q R
  const auto rec = linalg::matmul(qr.q, qr.r);
  EXPECT_LT(max_abs_diff(rec, a), 1e-10);
  // Q^T Q = I
  const auto qtq = linalg::matmul(qr.q.transposed(), qr.q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(n)), 1e-10);
  // R upper triangular
  for (std::size_t i = 0; i < qr.r.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(qr.r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrProperty,
                         ::testing::Values(std::pair{3, 3}, std::pair{8, 3},
                                           std::pair{16, 16}, std::pair{40, 12},
                                           std::pair{5, 1}));

TEST(Cholesky, FactorsSpdMatrix) {
  const auto b = random_matrix(6, 6, 9);
  auto spd = linalg::matmul(b, b.transposed());
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 1.0;
  Matrix u = spd;
  linalg::cholesky(u);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(u(i, j), 0.0);
  }
  EXPECT_LT(max_abs_diff(linalg::matmul(u.transposed(), u), spd), 1e-10);
}

// The in-place kernels promise each entry's textbook operation sequence,
// so they are compared bitwise (EXPECT_EQ, not a tolerance) against plain
// scalar references, at sizes that exercise the four-term passes' tails.
class TriangularKernels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TriangularKernels, CholeskyMatchesRowDotProductBitwise) {
  const std::size_t n = GetParam();
  const auto b = random_matrix(n, n + 3, 31 + n);
  auto spd = linalg::matmul(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = spd(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = i == j ? std::sqrt(sum) : sum / l(j, j);
    }
  }
  Matrix u = spd;
  linalg::cholesky(u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(u(j, i), j <= i ? l(i, j) : 0.0) << i << "," << j;
    }
  }
}

TEST_P(TriangularKernels, MultiRhsAndInverseMatchUnitSolvesBitwise) {
  const std::size_t n = GetParam(), cols = 7;
  const auto b = random_matrix(n, n + 3, 41 + n);
  auto u = linalg::matmul(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) u(i, i) += 0.5;
  linalg::cholesky(u);
  const Matrix l = u.transposed();

  const auto rhs = random_matrix(n, cols, 51 + n);
  Matrix x = rhs;
  linalg::solve_lower_multi(u, x.data().data(), cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const auto ref = linalg::solve_lower(l, rhs.column(c));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x(i, c), ref[i]) << c;
  }

  Matrix inv(n, n, -7.0);
  linalg::invert_lower(u, inv);
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(n, 0.0);
    e[c] = 1.0;
    const auto ref = linalg::solve_lower(l, e);
    for (std::size_t i = c; i < n; ++i) EXPECT_EQ(inv(i, c), ref[i]) << c;
    for (std::size_t i = 0; i < c; ++i) EXPECT_EQ(inv(i, c), -7.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriangularKernels,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 11, 75));

TEST(Cholesky, RejectsIndefinite) {
  auto m = Matrix::identity(3);
  m(2, 2) = -1.0;
  EXPECT_THROW(linalg::cholesky(m), Error);
}

TEST(Solvers, TriangularSolves) {
  const auto l = Matrix::from_rows({{2, 0}, {1, 3}});
  const auto y = linalg::solve_lower(l, {4, 7});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0 / 3.0);
  const auto u = Matrix::from_rows({{2, 1}, {0, 3}});
  const auto x = linalg::solve_upper(u, {5, 6});
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[0], 1.5);
}

TEST(Solvers, SquareSolveRecovers) {
  const auto a = random_matrix(10, 10, 21);
  const auto x_true = random_vector(10, 22);
  const auto b = linalg::matvec(a, x_true);
  const auto x = linalg::solve(a, b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Lstsq, OverdeterminedExactWhenConsistent) {
  const auto a = random_matrix(20, 5, 31);
  const auto x_true = random_vector(5, 32);
  const auto b = linalg::matvec(a, x_true);
  const auto x = linalg::lstsq(a, b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Lstsq, ResidualOrthogonalToColumns) {
  const auto a = random_matrix(12, 4, 41);
  const auto b = random_vector(12, 42);
  const auto x = linalg::lstsq(a, b);
  const auto r = linalg::vsub(b, linalg::matvec(a, x));
  const auto atr = linalg::matvec_transposed(a, r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(CholeskyAppend, MatchesBatchSolve) {
  const std::size_t m = 30, k = 6;
  const auto a = random_matrix(m, k, 51);
  const auto b = random_vector(m, 52);

  linalg::CholeskyAppend inc(k);
  Vector atb;
  for (std::size_t j = 0; j < k; ++j) {
    const auto col = a.column(j);
    Vector cross(j);
    for (std::size_t i = 0; i < j; ++i) cross[i] = linalg::dot(a.column(i), col);
    ASSERT_TRUE(inc.append(cross, linalg::dot(col, col)));
    atb.push_back(linalg::dot(col, b));
  }
  const auto x_inc = inc.solve(atb);
  const auto x_ls = linalg::lstsq(a, b);
  for (std::size_t i = 0; i < k; ++i) EXPECT_NEAR(x_inc[i], x_ls[i], 1e-8);
}

TEST(CholeskyAppend, RejectsDuplicateColumn) {
  const auto a = random_matrix(10, 1, 61);
  const auto col = a.column(0);
  const double g = linalg::dot(col, col);
  linalg::CholeskyAppend inc(3);
  ASSERT_TRUE(inc.append({}, g));
  // Appending a numerically identical column must be refused.
  EXPECT_FALSE(inc.append({g}, g));
  EXPECT_EQ(inc.size(), 1u);
}

TEST(CholeskyAppend, CapacityEnforced) {
  linalg::CholeskyAppend inc(1);
  ASSERT_TRUE(inc.append({}, 2.0));
  EXPECT_THROW(inc.append({0.0}, 2.0), Error);
}

// ---------------------------------------------------------------------------
// Sparse binary (CSR) operators and the blocked dense kernels behind them.

#include "linalg/sparse.hpp"

namespace {

/// Random per-column supports with `s` ones per column (the s-SRBM shape).
std::vector<std::vector<std::size_t>> random_supports(std::size_t rows,
                                                      std::size_t cols,
                                                      std::size_t s,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::size_t>> sup(cols);
  for (auto& col : sup) {
    while (col.size() < s) {
      const auto r = static_cast<std::size_t>(rng.below(rows));
      bool dup = false;
      for (auto v : col) dup = dup || v == r;
      if (!dup) col.push_back(r);
    }
  }
  return sup;
}

}  // namespace

TEST(SparseBinary, ApplyMatchesDenseBitwise) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t m = 24 + 8 * seed, n = 96;
    const auto sup = random_supports(m, n, 3, seed);
    const auto s = linalg::SparseBinaryMatrix::from_column_supports(m, n, sup);
    EXPECT_EQ(s.nnz(), 3 * n);
    const auto dense = s.to_dense();
    const auto x = random_vector(n, 100 + seed);
    const auto y_sparse = s.apply(x);
    const auto y_dense = linalg::matvec(dense, x);
    ASSERT_EQ(y_sparse.size(), m);
    for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(y_sparse[i], y_dense[i]);
  }
}

TEST(SparseBinary, WeightedApplyMatchesDenseBitwise) {
  const std::size_t m = 40, n = 128;
  const auto sup = random_supports(m, n, 2, 7);
  const auto s = linalg::SparseBinaryMatrix::from_column_supports(m, n, sup);
  Vector w(s.nnz());
  Rng rng(8);
  for (auto& v : w) v = 0.5 + 0.5 * rng.uniform(0.0, 1.0);
  const auto dense = s.to_dense(w);
  const auto x = random_vector(n, 9);
  const auto y_sparse = s.apply(x, w);
  const auto y_dense = linalg::matvec(dense, x);
  for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(y_sparse[i], y_dense[i]);
}

TEST(SparseBinary, ApplyTransposedMatchesDense) {
  const std::size_t m = 32, n = 96;
  const auto sup = random_supports(m, n, 2, 11);
  const auto s = linalg::SparseBinaryMatrix::from_column_supports(m, n, sup);
  Vector w(s.nnz());
  Rng rng(12);
  for (auto& v : w) v = rng.gaussian();
  const auto y = random_vector(m, 13);
  const auto xt_sparse = s.apply_transposed(y, w);
  const auto xt_dense = linalg::matvec_transposed(s.to_dense(w), y);
  ASSERT_EQ(xt_sparse.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(xt_sparse[j], xt_dense[j], 1e-15);
  }
}

TEST(SparseBinary, DenseProductMatchesMatmulBitwise) {
  const std::size_t m = 28, n = 96, k = 33;
  const auto sup = random_supports(m, n, 2, 17);
  const auto s = linalg::SparseBinaryMatrix::from_column_supports(m, n, sup);
  Vector w(s.nnz());
  Rng rng(18);
  for (auto& v : w) v = rng.gaussian();
  const auto b = random_matrix(n, k, 19);
  const auto plain = s.dense_product(b);
  const auto plain_ref = linalg::matmul(s.to_dense(), b);
  const auto weighted = s.dense_product(b, w);
  const auto weighted_ref = linalg::matmul(s.to_dense(w), b);
  for (std::size_t i = 0; i < plain.data().size(); ++i) {
    EXPECT_EQ(plain.data()[i], plain_ref.data()[i]);
    EXPECT_EQ(weighted.data()[i], weighted_ref.data()[i]);
  }
}

TEST(SparseBinary, RejectsBadSupports) {
  EXPECT_THROW(linalg::SparseBinaryMatrix::from_column_supports(
                   4, 2, {{0, 0}, {1}}),
               Error);  // duplicate row within a column
  EXPECT_THROW(linalg::SparseBinaryMatrix::from_column_supports(4, 1, {{4}}),
               Error);  // row index out of range
}

TEST(Matrix, GramMatchesExplicitTransposeProductBitwise) {
  for (std::size_t n : {5u, 48u, 130u}) {
    const auto a = random_matrix(37, n, 700 + n);
    const auto g = linalg::gram(a);
    const auto ref = linalg::matmul(a.transposed(), a);
    ASSERT_EQ(g.rows(), n);
    ASSERT_EQ(g.cols(), n);
    for (std::size_t i = 0; i < g.data().size(); ++i) {
      EXPECT_EQ(g.data()[i], ref.data()[i]);
    }
  }
}

TEST(Matrix, BlockedMatmulMatchesNaiveTripleLoop) {
  // Sizes straddling the k-block boundary of the cache-blocked kernel.
  for (std::size_t k : {1u, 63u, 64u, 65u, 200u}) {
    const auto a = random_matrix(9, k, 900 + k);
    const auto b = random_matrix(k, 7, 901 + k);
    const auto c = linalg::matmul(a, b);
    for (std::size_t i = 0; i < 9; ++i) {
      for (std::size_t j = 0; j < 7; ++j) {
        double sum = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) sum += a(i, kk) * b(kk, j);
        EXPECT_NEAR(c(i, j), sum, 1e-12 * (1.0 + std::fabs(sum)));
      }
    }
  }
}

// The lane kernels promise the scalar loop's exact IEEE results (the AVX2
// variants vectorize across independent values only), so they are checked
// bitwise against plain scalar loops. Single-RHS Batch-OMP runs these
// kernels, so these loops are the reference its atom selection and
// correlation update are held to.
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The OMP atom-selection loop: first k with the largest fabs(alpha[k]) /
/// col_norm[k] under strict '>', skipping live[k] == 0.0.
std::size_t select_atom_reference(const Vector& alpha, const Vector& norm,
                                  const Vector& live, double* best_score) {
  std::size_t best = alpha.size();
  double score_best = 0.0;
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    if (live[k] == 0.0) continue;
    const double s = std::fabs(alpha[k]) / norm[k];
    if (s > score_best) {
      score_best = s;
      best = k;
    }
  }
  *best_score = score_best;
  return best;
}

void expect_select_atom_matches(const Vector& alpha, const Vector& norm,
                                const Vector& live, const std::string& where) {
  double want_score = -1.0, got_score = -1.0;
  const std::size_t want =
      select_atom_reference(alpha, norm, live, &want_score);
  const std::size_t got = linalg::select_atom(
      alpha.data(), norm.data(), live.data(), alpha.size(), &got_score);
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(bits_of(got_score), bits_of(want_score)) << where;
}

}  // namespace

TEST(LaneKernels, DotLanesMatchesScalarLoopBitwise) {
  for (std::size_t lanes = 1; lanes <= 9; ++lanes) {
    for (const std::size_t n : {1, 3, 4, 5, 7, 8, 13, 75}) {
      const auto a = random_vector(n, 100 + n);
      const auto xt = random_vector(n * lanes, 200 + 10 * n + lanes);
      Vector out(lanes, -1.0);
      linalg::dot_lanes(a.data(), xt.data(), n, lanes, out.data());
      for (std::size_t l = 0; l < lanes; ++l) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) sum += a[i] * xt[i * lanes + l];
        EXPECT_EQ(bits_of(out[l]), bits_of(sum))
            << "lanes=" << lanes << " n=" << n << " lane " << l;
      }
    }
  }
}

TEST(LaneKernels, SubScaledMatchesScalarLoopBitwise) {
  for (std::size_t n = 0; n <= 13; ++n) {
    for (const double c : {0.7345, -3.0e-9, 0.0}) {
      const auto r = random_vector(n, 300 + n);
      Vector a = random_vector(n, 400 + n);
      Vector want = a;
      for (std::size_t k = 0; k < n; ++k) want[k] -= c * r[k];
      linalg::sub_scaled(a.data(), r.data(), c, n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits_of(a[k]), bits_of(want[k])) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(LaneKernels, SelectAtomMatchesScalarScanOnRandomInput) {
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 9, 13, 75, 326}) {
    const auto alpha = random_vector(n, 500 + n);
    Vector norm = random_vector(n, 600 + n);
    for (double& v : norm) v = std::fabs(v) + 0.1;
    Vector live(n, 1.0);
    expect_select_atom_matches(alpha, norm, live, "n=" + std::to_string(n));
    // Knock out the winner repeatedly, as OMP does across iterations.
    for (std::size_t iter = 0; iter < std::min<std::size_t>(n, 6); ++iter) {
      double score = 0.0;
      const std::size_t best =
          linalg::select_atom(alpha.data(), norm.data(), live.data(), n,
                              &score);
      ASSERT_LT(best, n);
      live[best] = 0.0;
      expect_select_atom_matches(alpha, norm, live,
                                 "n=" + std::to_string(n) + " after " +
                                     std::to_string(iter + 1) + " picks");
    }
  }
}

TEST(LaneKernels, SelectAtomKeepsTheFirstOfTiedWinners) {
  // Equal quotients from different (alpha, norm) pairs, within one 4-block
  // and across blocks: the lowest index must win.
  const std::size_t n = 11;
  Vector alpha(n, 0.25), norm(n, 1.0), live(n, 1.0);
  alpha[6] = -2.0;  // 2 / 2 == 1
  norm[6] = 2.0;
  alpha[3] = 1.0;   // first winner, block 0
  alpha[1] = 0.5;
  alpha[9] = 3.0;   // 3 / 3, block 2
  norm[9] = 3.0;
  expect_select_atom_matches(alpha, norm, live, "ties across blocks");
  double score = 0.0;
  EXPECT_EQ(linalg::select_atom(alpha.data(), norm.data(), live.data(), n,
                                &score),
            3u);
  EXPECT_EQ(score, 1.0);
  live[3] = 0.0;
  expect_select_atom_matches(alpha, norm, live, "next tie");
  EXPECT_EQ(linalg::select_atom(alpha.data(), norm.data(), live.data(), n,
                                &score),
            6u);
  // Every entry tied: the first live one wins.
  const Vector flat(n, -0.5), ones(n, 1.0);
  Vector some_live(n, 1.0);
  some_live[0] = some_live[1] = 0.0;
  expect_select_atom_matches(flat, ones, some_live, "all tied");
}

TEST(LaneKernels, SelectAtomSkipsDeadAndZeroNormAtoms) {
  const std::size_t n = 10;
  Vector alpha = random_vector(n, 700);
  Vector norm(n, 1.0), live(n, 1.0);
  // A zero-norm atom is never live (OMP masks it): its 0/0 or x/0 quotient
  // must not win, whatever its alpha.
  alpha[2] = 0.0;
  norm[2] = 0.0;
  live[2] = 0.0;
  alpha[5] = 1e9;
  norm[5] = 0.0;
  live[5] = 0.0;
  expect_select_atom_matches(alpha, norm, live, "zero-norm atoms");
  // Nothing live: n is returned and the score stays 0.
  const Vector none(n, 0.0);
  double score = -1.0;
  EXPECT_EQ(linalg::select_atom(alpha.data(), norm.data(), none.data(), n,
                                &score),
            n);
  EXPECT_EQ(bits_of(score), bits_of(0.0));
  // Nothing scores above zero (alpha == 0, including -0.0).
  Vector zero(n, 0.0);
  zero[7] = -0.0;
  const Vector all_live(n, 1.0), unit(n, 1.0);
  EXPECT_EQ(linalg::select_atom(zero.data(), unit.data(), all_live.data(), n,
                                &score),
            n);
  expect_select_atom_matches(zero, unit, all_live, "all-zero alpha");
}

TEST(LaneKernels, SelectAtomIgnoresNaNScoresLikeTheScalarScan) {
  // A NaN quotient never wins a strict '>' comparison; it must not hide a
  // winner that shares its 4-block either, wherever it sits in the block.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t pos = 0; pos < 8; ++pos) {
    for (std::size_t win = 0; win < 8; ++win) {
      if (win == pos) continue;
      Vector alpha(9, 0.125), norm(9, 1.0), live(9, 1.0);
      alpha[pos] = nan;
      alpha[win] = 4.0;
      expect_select_atom_matches(alpha, norm, live,
                                 "NaN at " + std::to_string(pos) +
                                     ", winner at " + std::to_string(win));
    }
  }
}
