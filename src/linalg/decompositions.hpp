#pragma once
// Matrix decompositions and solvers: Householder QR, Cholesky (with rank-1
// append used by the incremental OMP solver), triangular solves and least
// squares.

#include "linalg/matrix.hpp"

namespace efficsense::linalg {

/// Thin QR via Householder reflections: A (m x n, m >= n) = Q (m x n) * R (n x n).
struct QrResult {
  Matrix q;
  Matrix r;
};
QrResult qr_decompose(const Matrix& a);

/// Cholesky factorization A = U^T U of a symmetric positive-definite A, in
/// place: reads the upper triangle of `a` and overwrites `a` with the upper
/// factor U = L^T (strict lower triangle zeroed), L being the usual lower
/// Cholesky factor. Left-looking by columns of L: each row of U is
/// vectorized across its entries, four k-terms per pass, and every entry
/// keeps the textbook sequence L(i,j) = (A(i,j) - sum_k L(i,k) L(j,k)) /
/// L(j,j) with the terms subtracted in ascending k. Throws Error if A is
/// not positive definite.
void cholesky(Matrix& a);

/// Solve L y = b (forward substitution), L lower triangular.
Vector solve_lower(const Matrix& l, const Vector& b);

/// Forward substitution L X = B for `cols` right-hand sides at once, with
/// L = U^T given by the factor `u` from cholesky(). `b` is u.rows() x cols,
/// row-major, and is overwritten with X. Row-oriented and vectorized across
/// the right-hand sides; each column of X is bitwise solve_lower(L, column).
void solve_lower_multi(const Matrix& u, double* b, std::size_t cols);

/// X = L^{-1} for L = U^T, `u` from cholesky(), written into the lower
/// triangle of the n x n `x` (the strict upper triangle is not touched).
/// Skips the structural zeros of the triangular inverse (n^3/6 multiply-
/// subtracts instead of the n^3/2 of n unit-vector solves), and column i is
/// bitwise solve_lower(L, e_i) on and below the diagonal.
void invert_lower(const Matrix& u, Matrix& x);

/// Solve U x = y (back substitution), U upper triangular.
Vector solve_upper(const Matrix& u, const Vector& y);

/// Solve A x = b for square A via QR (no pivoting; A must be well-conditioned).
Vector solve(const Matrix& a, const Vector& b);

/// Least squares: argmin_x ||A x - b||_2 for m >= n via QR.
Vector lstsq(const Matrix& a, const Vector& b);

/// Incrementally maintained Cholesky factor of G = A_S^T A_S as columns are
/// appended to the active set S. Backbone of the fast OMP implementation:
/// appending a column costs O(k^2), solving costs O(k^2).
class CholeskyAppend {
 public:
  explicit CholeskyAppend(std::size_t max_size);

  std::size_t size() const { return size_; }

  /// Append a column whose Gram entries against the existing active set are
  /// `cross` (size k) and whose self inner product is `diag`.
  /// Returns false (and leaves the factor unchanged) if the update would
  /// make the matrix numerically singular.
  bool append(const Vector& cross, double diag);

  /// Solve (A_S^T A_S) x = rhs with the current factor.
  Vector solve(const Vector& rhs) const;

 private:
  std::size_t max_size_;
  std::size_t size_ = 0;
  Matrix l_;  // lower-triangular factor, only the leading size_ block is valid
};

}  // namespace efficsense::linalg
