#include "cs/bsbl.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/decompositions.hpp"
#include "linalg/lane_kernels.hpp"
#include "util/error.hpp"

namespace efficsense::cs {
namespace {

double dot(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

// Everything one solve touches, sized once so the BO loop never allocates.
class Workspace {
 public:
  Workspace(std::size_t m, std::size_t k, bool learn_lambda)
      : m_(m),
        stride_((m + 7) / 8 * 8),
        sigma_(m, m),
        scaled_(k * stride_, 0.0),
        rhs_(m * (k + 1)),
        norms_(k),
        v_(m),
        active_(k) {
    if (learn_lambda) {
      inverse_ = linalg::Matrix(m, m);
      inverse_norms_.resize(m);
    }
  }

  /// Factor Sigma_y = lambda*I + sum_j gamma(j) a_j a_j^T into sigma_ (the
  /// upper factor U = L^T) from the unpruned atoms, which are recorded in
  /// ascending order in active_.
  void factor(const linalg::Matrix& atoms, std::size_t block,
              const std::vector<double>& gammas, double lambda) {
    n_active_ = 0;
    for (std::size_t j = 0; j < atoms.rows(); ++j) {
      const double g = gammas[j / block];
      if (g <= 0.0) continue;
      const double s = std::sqrt(g);
      const double* src = atoms.row_ptr(j);
      double* dst = scaled_.data() + n_active_ * stride_;
      for (std::size_t c = 0; c < m_; ++c) dst[c] = s * src[c];
      active_[n_active_++] = j;
    }
    assemble_sigma_y(lambda);
    linalg::cholesky(sigma_);
  }

  /// v = Sigma_y^{-1} y, and with `trace_terms` also ||L^{-1} a_j||^2 for
  /// every active atom (norms()), all from one forward substitution
  /// L^{-1} [A_active | y] followed by a back substitution U v = L^{-1} y.
  void solve(const linalg::Matrix& atoms, const linalg::Vector& y,
             bool trace_terms) {
    const std::size_t n = trace_terms ? n_active_ : 0;
    const std::size_t cols = n + 1;
    for (std::size_t c = 0; c < n; ++c) {
      const double* a = atoms.row_ptr(active_[c]);
      for (std::size_t i = 0; i < m_; ++i) rhs_[i * cols + c] = a[i];
    }
    for (std::size_t i = 0; i < m_; ++i) rhs_[i * cols + n] = y[i];
    linalg::solve_lower_multi(sigma_, rhs_.data(), cols);

    // Column norms accumulated in row order: each is the ascending-i dot of
    // its column with itself.
    std::fill(norms_.begin(), norms_.begin() + n, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = rhs_.data() + i * cols;
      for (std::size_t c = 0; c < n; ++c) norms_[c] += row[c] * row[c];
    }

    // U v = L^{-1} y, U(i,k) = L(k,i), subtracting in ascending k.
    const double* u = sigma_.data().data();
    for (std::size_t i = m_; i-- > 0;) {
      double sum = rhs_[i * cols + n];
      for (std::size_t k = i + 1; k < m_; ++k) sum -= u[i * m_ + k] * v_[k];
      v_[i] = sum / u[i * m_ + i];
    }
  }

  /// tr(Sigma_y^{-1}) = ||L^{-1}||_F^2: column norms of the triangular
  /// inverse accumulated in row order, then summed in column order.
  double trace_inverse() {
    linalg::invert_lower(sigma_, inverse_);
    std::fill(inverse_norms_.begin(), inverse_norms_.end(), 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      const double* row = inverse_.row_ptr(r);
      for (std::size_t i = 0; i <= r; ++i) inverse_norms_[i] += row[i] * row[i];
    }
    double tr = 0.0;
    for (double s : inverse_norms_) tr += s;
    return tr;
  }

  const linalg::Vector& v() const { return v_; }
  const linalg::Vector& norms() const { return norms_; }

 private:
  // Upper triangle of Sigma_y = lambda*I + W^T W over the packed rows of
  // scaled_. Each entry sums its atoms in ascending order from 0.0, then
  // adds lambda on the diagonal: bitwise a zero-skipping Gram over all K
  // atoms, since a pruned atom or a zero entry only ever adds a signed zero.
  void assemble_sigma_y(double lambda) {
    linalg::gram_rows(scaled_.data(), n_active_, stride_, m_,
                      sigma_.data().data());
    for (std::size_t d = 0; d < m_; ++d) sigma_(d, d) += lambda;
  }

  std::size_t m_;
  std::size_t stride_;         // row pitch of scaled_: m rounded up to 8
  linalg::Matrix sigma_;       // Sigma_y, factored in place to U = L^T
  std::vector<double> scaled_; // sqrt(gamma_j) a_j per active atom, padded
  std::vector<double> rhs_;    // [A_active | y], then L^{-1} of it
  linalg::Vector norms_;       // ||L^{-1} a_j||^2 per active atom
  linalg::Vector v_;           // Sigma_y^{-1} y
  std::vector<std::size_t> active_;
  std::size_t n_active_ = 0;
  linalg::Matrix inverse_;     // L^{-1} (learned lambda only)
  linalg::Vector inverse_norms_;
};

}  // namespace

BsblSolver::BsblSolver(const linalg::Matrix& dictionary, BsblOptions options)
    : options_(options) {
  EFF_REQUIRE(dictionary.rows() > 0 && dictionary.cols() > 0,
              "bsbl_solve needs a non-empty dictionary");
  atoms_ = dictionary.transposed();
}

BsblResult BsblSolver::solve(const linalg::Vector& y) const {
  const std::size_t k = atoms_.rows();
  const std::size_t m = atoms_.cols();
  EFF_REQUIRE(y.size() == m, "bsbl_solve measurement size mismatch");

  const std::size_t block = std::max<std::size_t>(1, options_.block_size);
  const std::size_t n_blocks = (k + block - 1) / block;

  BsblResult out;
  out.coefficients.assign(k, 0.0);

  const double y_norm = linalg::norm2(y);
  if (y_norm == 0.0) return out;

  // Noise floor: a fixed value when the caller knows it, otherwise seeded
  // from the residual tolerance and learned by the type-II EM rule below —
  // a fixed seed badly overfits when the true measurement noise exceeds
  // the nominal tolerance (the regime chain sweeps actually operate in).
  const bool learn_lambda = !(options_.lambda > 0.0);
  double lambda =
      options_.lambda > 0.0
          ? options_.lambda
          : std::max(1e-12, (options_.residual_tol * y_norm) *
                                (options_.residual_tol * y_norm) /
                                static_cast<double>(m));

  std::vector<double> gammas(n_blocks, 1.0);
  Workspace ws(m, k, learn_lambda);

  for (std::size_t iter = 0; iter < options_.max_iters; ++iter) {
    out.iterations = iter + 1;

    ws.factor(atoms_, block, gammas, lambda);
    ws.solve(atoms_, y, /*trace_terms=*/true);
    const linalg::Vector& v = ws.v();

    double max_rel_change = 0.0;
    std::size_t c = 0;  // column of the block's first atom in ws.norms()
    for (std::size_t b = 0; b < n_blocks; ++b) {
      if (gammas[b] <= 0.0) continue;
      const std::size_t j0 = b * block;
      const std::size_t j1 = std::min(k, j0 + block);
      double q_sq = 0.0;
      double trace_s = 0.0;
      for (std::size_t j = j0; j < j1; ++j) {
        const double q = dot(atoms_.row_ptr(j), v.data(), m);
        q_sq += q * q;
        trace_s += ws.norms()[c++];  // a^T Sigma_y^{-1} a = ||L^{-1} a||^2
      }
      if (!(trace_s > 0.0) || !std::isfinite(trace_s) ||
          !std::isfinite(q_sq)) {
        gammas[b] = 0.0;
        continue;
      }
      const double next = gammas[b] * std::sqrt(q_sq) / std::sqrt(trace_s);
      max_rel_change = std::max(
          max_rel_change, std::abs(next - gammas[b]) / std::max(gammas[b], next));
      gammas[b] = next;
    }

    double g_max = 0.0;
    for (double g : gammas) g_max = std::max(g_max, g);
    if (g_max <= 0.0) break;
    for (double& g : gammas) {
      if (g < options_.prune_gamma * g_max) g = 0.0;
    }

    if (learn_lambda) {
      // Type-II EM noise update: lambda <- (||y - A mu||^2 +
      // lambda*(M - lambda*tr(Sigma_y^{-1}))) / M. The posterior mean
      // satisfies y - A mu = lambda*v.
      const double tr_inv = ws.trace_inverse();
      const double v_sq = dot(v.data(), v.data(), m);
      const double next =
          (lambda * lambda * v_sq +
           lambda * (static_cast<double>(m) - lambda * tr_inv)) /
          static_cast<double>(m);
      if (std::isfinite(next)) {
        const double ceiling = y_norm * y_norm / static_cast<double>(m);
        const double clamped = std::clamp(next, 1e-12, ceiling);
        max_rel_change =
            std::max(max_rel_change, std::abs(clamped - lambda) /
                                         std::max(lambda, clamped));
        lambda = clamped;
      }
    }

    if (max_rel_change < options_.gamma_tol) break;
  }

  // Posterior mean with the final hyperparameters: mu_j = gamma_j * a_j^T v.
  double g_max = 0.0;
  for (double g : gammas) g_max = std::max(g_max, g);
  if (g_max > 0.0) {
    ws.factor(atoms_, block, gammas, lambda);
    ws.solve(atoms_, y, /*trace_terms=*/false);
    for (std::size_t j = 0; j < k; ++j) {
      const double g = gammas[j / block];
      if (g <= 0.0) continue;
      out.coefficients[j] = g * dot(atoms_.row_ptr(j), ws.v().data(), m);
    }
  }

  // A mu from the atom rows: matvec_transposed skips the zero coefficients
  // of pruned atoms, which could only have added signed zeros, so the fit
  // equals matvec(A, mu) bitwise.
  const linalg::Vector fit =
      linalg::matvec_transposed(atoms_, out.coefficients);
  out.residual_norm = linalg::norm2(linalg::vsub(y, fit));
  return out;
}

BsblResult bsbl_solve(const linalg::Matrix& dictionary, const linalg::Vector& y,
                      BsblOptions options) {
  return BsblSolver(dictionary, options).solve(y);
}

}  // namespace efficsense::cs
