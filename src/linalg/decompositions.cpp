#include "linalg/decompositions.hpp"

#include <cmath>

#include "linalg/lane_kernels.hpp"
#include "util/error.hpp"

namespace efficsense::linalg {

QrResult qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  EFF_REQUIRE(m >= n && n > 0, "qr_decompose requires m >= n > 0");

  Matrix r = a;                      // will be reduced in place
  Matrix qt = Matrix::identity(m);   // accumulates Q^T (full, trimmed later)
  Vector v(m);

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = (r(k, k) >= 0.0) ? -norm : norm;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      v[i] = r(i, k) - (i == k ? alpha : 0.0);
      vnorm2 += v[i] * v[i];
    }
    if (vnorm2 == 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to R and accumulate into Q^T.
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * r(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= s * v[i];
    }
    for (std::size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * qt(i, j);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) qt(i, j) -= s * v[i];
    }
  }

  QrResult out;
  out.q = Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out.q(i, j) = qt(j, i);
  }
  out.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
  }
  return out;
}

void cholesky(Matrix& a) {
  const std::size_t n = a.rows();
  EFF_REQUIRE(n == a.cols(), "cholesky requires a square matrix");
  double* u = a.data().data();
  for (std::size_t j = 0; j < n; ++j) {
    // Row j of U (column j of L), entries j..n-1: subtract the k < j terms
    // L(i,k) L(j,k) = U(k,i) U(k,j) from the upper triangle of A.
    double* uj = u + j * n;
    std::size_t k = 0;
    for (; k + 4 <= j; k += 4) {
      const double* r = u + k * n;
      sub_scaled4(uj + j, r + j, r + n + j, r + 2 * n + j, r + 3 * n + j,
                  r[j], r[n + j], r[2 * n + j], r[3 * n + j], n - j);
    }
    for (; k < j; ++k) sub_scaled(uj + j, u + k * n + j, u[k * n + j], n - j);
    EFF_REQUIRE(uj[j] > 0.0, "matrix is not positive definite");
    const double pivot = std::sqrt(uj[j]);
    uj[j] = pivot;
    for (std::size_t i = j + 1; i < n; ++i) uj[i] /= pivot;
    for (std::size_t i = 0; i < j; ++i) uj[i] = 0.0;
  }
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  EFF_REQUIRE(n == l.cols() && n == b.size(), "solve_lower shape mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    EFF_REQUIRE(l(i, i) != 0.0, "singular lower-triangular matrix");
    y[i] = sum / l(i, i);
  }
  return y;
}

void solve_lower_multi(const Matrix& u, double* b, std::size_t cols) {
  const std::size_t n = u.rows();
  EFF_REQUIRE(n == u.cols(), "solve_lower_multi needs a square factor");
  const double* f = u.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    // X(i,:) = (B(i,:) - sum_k L(i,k) X(k,:)) / L(i,i), L(i,k) = U(k,i).
    double* xi = b + i * cols;
    std::size_t k = 0;
    for (; k + 4 <= i; k += 4) {
      const double* xk = b + k * cols;
      sub_scaled4(xi, xk, xk + cols, xk + 2 * cols, xk + 3 * cols,
                  f[k * n + i], f[(k + 1) * n + i], f[(k + 2) * n + i],
                  f[(k + 3) * n + i], cols);
    }
    for (; k < i; ++k) sub_scaled(xi, b + k * cols, f[k * n + i], cols);
    const double d = f[i * n + i];
    EFF_REQUIRE(d != 0.0, "singular lower-triangular matrix");
    for (std::size_t c = 0; c < cols; ++c) xi[c] /= d;
  }
}

void invert_lower(const Matrix& u, Matrix& x) {
  const std::size_t n = u.rows();
  EFF_REQUIRE(n == u.cols() && x.rows() == n && x.cols() == n,
              "invert_lower shape mismatch");
  const double* f = u.data().data();
  double* out = x.data().data();
  for (std::size_t r = 0; r < n; ++r) {
    // Row r of L^{-1}: X(r,i) = -sum_{k=i}^{r-1} L(r,k) X(k,i) / L(r,r).
    // X(k,i) vanishes for i > k, so the k-th term only reaches i <= k.
    double* xr = out + r * n;
    for (std::size_t i = 0; i < r; ++i) xr[i] = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= r; k += 4) {
      const double* xk = out + k * n;
      const double c0 = f[k * n + r], c1 = f[(k + 1) * n + r],
                   c2 = f[(k + 2) * n + r], c3 = f[(k + 3) * n + r];
      sub_scaled4(xr, xk, xk + n, xk + 2 * n, xk + 3 * n, c0, c1, c2, c3,
                  k + 1);
      // The triangle the four-term pass left out, still in ascending k.
      xr[k + 1] = ((xr[k + 1] - c1 * xk[n + k + 1]) -
                   c2 * xk[2 * n + k + 1]) -
                  c3 * xk[3 * n + k + 1];
      xr[k + 2] = (xr[k + 2] - c2 * xk[2 * n + k + 2]) - c3 * xk[3 * n + k + 2];
      xr[k + 3] -= c3 * xk[3 * n + k + 3];
    }
    for (; k < r; ++k) sub_scaled(xr, out + k * n, f[k * n + r], k + 1);
    const double d = f[r * n + r];
    EFF_REQUIRE(d != 0.0, "singular lower-triangular matrix");
    for (std::size_t i = 0; i < r; ++i) xr[i] /= d;
    xr[r] = 1.0 / d;
  }
}

Vector solve_upper(const Matrix& u, const Vector& y) {
  const std::size_t n = u.rows();
  EFF_REQUIRE(n == u.cols() && n == y.size(), "solve_upper shape mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= u(ii, k) * x[k];
    EFF_REQUIRE(u(ii, ii) != 0.0, "singular upper-triangular matrix");
    x[ii] = sum / u(ii, ii);
  }
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  EFF_REQUIRE(a.rows() == a.cols(), "solve requires a square matrix");
  return lstsq(a, b);
}

Vector lstsq(const Matrix& a, const Vector& b) {
  EFF_REQUIRE(a.rows() == b.size(), "lstsq shape mismatch");
  const QrResult qr = qr_decompose(a);
  const Vector qtb = matvec_transposed(qr.q, b);
  return solve_upper(qr.r, qtb);
}

CholeskyAppend::CholeskyAppend(std::size_t max_size)
    : max_size_(max_size), l_(max_size, max_size) {
  EFF_REQUIRE(max_size > 0, "CholeskyAppend requires max_size > 0");
}

bool CholeskyAppend::append(const Vector& cross, double diag) {
  EFF_REQUIRE(size_ < max_size_, "CholeskyAppend capacity exceeded");
  EFF_REQUIRE(cross.size() == size_, "cross-term vector has wrong size");
  // New row w of L solves L w = cross; new diagonal is sqrt(diag - |w|^2).
  Vector w(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = cross[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l_(i, k) * w[k];
    w[i] = sum / l_(i, i);
  }
  double d = diag;
  for (std::size_t i = 0; i < size_; ++i) d -= w[i] * w[i];
  if (d <= 1e-14 * std::max(1.0, diag)) return false;  // numerically singular
  for (std::size_t i = 0; i < size_; ++i) l_(size_, i) = w[i];
  l_(size_, size_) = std::sqrt(d);
  ++size_;
  return true;
}

Vector CholeskyAppend::solve(const Vector& rhs) const {
  EFF_REQUIRE(rhs.size() == size_, "CholeskyAppend::solve shape mismatch");
  // Forward then back substitution on the leading size_ x size_ block.
  Vector y(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = rhs[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l_(i, k) * y[k];
    y[i] = sum / l_(i, i);
  }
  Vector x(size_);
  for (std::size_t ii = size_; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < size_; ++k) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

}  // namespace efficsense::linalg
