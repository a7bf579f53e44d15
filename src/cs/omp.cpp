#include "cs/omp.hpp"

#include <chrono>
#include <cmath>

#include "linalg/decompositions.hpp"
#include "linalg/lane_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace efficsense::cs {

namespace {
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}
}  // namespace

OmpSolver::OmpSolver(linalg::Matrix dictionary, OmpOptions options)
    : m_(dictionary.rows()), options_(options) {
  EFF_REQUIRE(dictionary.rows() > 0 && dictionary.cols() > 0,
              "empty dictionary");
  EFFICSENSE_SPAN("omp/setup");
  if (options_.mode == OmpMode::Batch) {
    const auto start = clock_type::now();
    gram_ = linalg::gram(dictionary);
    obs::counter("omp/gram_builds").inc();
    obs::histogram("time/omp_gram_build").observe(seconds_since(start));
  }
  dict_t_ = dictionary.transposed();
  dictionary = {};  // the dense M x K copy is never read again

  const std::size_t k_atoms = dict_t_.rows();
  col_norm_.resize(k_atoms);
  for (std::size_t k = 0; k < k_atoms; ++k) {
    const double* atom = dict_t_.row_ptr(k);
    double sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i) sum += atom[i] * atom[i];
    col_norm_[k] = std::sqrt(sum);
  }
  if (options_.max_atoms == 0) {
    options_.max_atoms = std::max<std::size_t>(1, m_ / 4);
  }
  options_.max_atoms = std::min(options_.max_atoms, m_);
}

OmpResult OmpSolver::solve(const linalg::Vector& y) const {
  EFF_REQUIRE(y.size() == m_, "measurement vector has wrong size");
  EFFICSENSE_SPAN("omp/solve");
  const auto start = clock_type::now();
  OmpResult out =
      options_.mode == OmpMode::Batch ? solve_batch(y) : solve_naive(y);
  obs::counter("omp/solves").inc();
  obs::histogram("time/omp_solve").observe(seconds_since(start));
  return out;
}

std::vector<OmpResult> OmpSolver::solve_multi(
    const std::vector<linalg::Vector>& ys) const {
  std::vector<OmpResult> results(ys.size());
  if (ys.empty()) return results;
  for (const auto& y : ys) {
    EFF_REQUIRE(y.size() == m_, "measurement vector has wrong size");
  }
  EFFICSENSE_SPAN("omp/solve_multi");
  const auto start = clock_type::now();
  if (options_.mode == OmpMode::Batch) {
    // Fused correlation pass: the lane frames are transposed into a
    // sample-major SoA block so each atom row is streamed through the
    // cache once and dotted against every lane at once. dot_lanes keeps
    // the per-(atom, lane) i-accumulation in exact scalar order (SIMD
    // runs across lanes only), so alpha0 — and everything downstream —
    // matches the single-RHS path bitwise.
    const auto alpha_start = clock_type::now();
    const std::size_t k_atoms = dict_t_.rows();
    const std::size_t n_lanes = ys.size();
    std::vector<double> yt(m_ * n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const double* y = ys[l].data();
      for (std::size_t i = 0; i < m_; ++i) yt[i * n_lanes + l] = y[i];
    }
    std::vector<linalg::Vector> alpha0(n_lanes, linalg::Vector(k_atoms, 0.0));
    std::vector<double> sums(n_lanes);
    for (std::size_t k = 0; k < k_atoms; ++k) {
      linalg::dot_lanes(dict_t_.row_ptr(k), yt.data(), m_, n_lanes,
                        sums.data());
      for (std::size_t l = 0; l < n_lanes; ++l) alpha0[l][k] = sums[l];
    }
    obs::histogram("time/omp_alpha0").observe(seconds_since(alpha_start));
    for (std::size_t l = 0; l < ys.size(); ++l) {
      results[l] = solve_batch_with_alpha0(ys[l], alpha0[l]);
    }
  } else {
    for (std::size_t l = 0; l < ys.size(); ++l) {
      results[l] = solve_naive(ys[l]);
    }
  }
  obs::counter("omp/solves").inc(ys.size());
  obs::counter("omp/multi_solves").inc();
  obs::histogram("time/omp_solve").observe(seconds_since(start));
  return results;
}

double OmpSolver::support_residual_norm(
    const linalg::Vector& y, const std::vector<std::size_t>& support,
    const linalg::Vector& coef) const {
  linalg::Vector residual = y;
  for (std::size_t si = 0; si < support.size(); ++si) {
    const double* s_atom = dict_t_.row_ptr(support[si]);
    const double c = coef[si];
    for (std::size_t i = 0; i < m_; ++i) residual[i] -= c * s_atom[i];
  }
  return linalg::norm2(residual);
}

OmpResult OmpSolver::solve_naive(const linalg::Vector& y) const {
  const std::size_t k_atoms = dict_t_.rows();

  OmpResult out;
  out.coefficients.assign(k_atoms, 0.0);

  const double y_norm = linalg::norm2(y);
  if (y_norm == 0.0) return out;
  const double target = options_.residual_tol * y_norm;
  out.residual_norm = y_norm;  // the residual starts at y

  linalg::Vector residual = y;
  std::vector<bool> in_support(k_atoms, false);
  std::vector<std::size_t> support;
  support.reserve(options_.max_atoms);
  linalg::CholeskyAppend chol(options_.max_atoms);
  linalg::Vector dt_y;  // <atom_s, y> for s in support, in support order
  dt_y.reserve(options_.max_atoms);
  linalg::Vector coef;

  for (std::size_t iter = 0; iter < options_.max_atoms; ++iter) {
    // Atom selection: largest normalized correlation with the residual.
    std::size_t best = k_atoms;
    double best_score = 0.0;
    for (std::size_t k = 0; k < k_atoms; ++k) {
      if (in_support[k] || col_norm_[k] == 0.0) continue;
      const double* atom = dict_t_.row_ptr(k);
      double corr = 0.0;
      for (std::size_t i = 0; i < m_; ++i) corr += atom[i] * residual[i];
      const double score = std::fabs(corr) / col_norm_[k];
      if (score > best_score) {
        best_score = score;
        best = k;
      }
    }
    if (best == k_atoms || best_score < 1e-15) break;

    // Gram cross terms against the current support.
    const double* new_atom = dict_t_.row_ptr(best);
    linalg::Vector cross(support.size());
    for (std::size_t si = 0; si < support.size(); ++si) {
      const double* s_atom = dict_t_.row_ptr(support[si]);
      double g = 0.0;
      for (std::size_t i = 0; i < m_; ++i) g += s_atom[i] * new_atom[i];
      cross[si] = g;
    }
    if (!chol.append(cross, col_norm_[best] * col_norm_[best])) break;

    in_support[best] = true;
    support.push_back(best);
    double ay = 0.0;
    for (std::size_t i = 0; i < m_; ++i) ay += new_atom[i] * y[i];
    dt_y.push_back(ay);

    // Least-squares coefficients on the support, then fresh residual.
    coef = chol.solve(dt_y);
    residual = y;
    for (std::size_t si = 0; si < support.size(); ++si) {
      const double* s_atom = dict_t_.row_ptr(support[si]);
      const double c = coef[si];
      for (std::size_t i = 0; i < m_; ++i) residual[i] -= c * s_atom[i];
    }
    out.iterations = iter + 1;
    out.residual_norm = linalg::norm2(residual);
    if (out.residual_norm <= target) break;
  }

  for (std::size_t si = 0; si < support.size(); ++si) {
    out.coefficients[support[si]] = coef[si];
  }
  out.support = std::move(support);
  return out;
}

OmpResult OmpSolver::solve_batch(const linalg::Vector& y) const {
  const std::size_t k_atoms = dict_t_.rows();
  // alpha0 = A^T y, once per frame; alpha tracks A^T r through the Gram.
  linalg::Vector alpha0(k_atoms);
  for (std::size_t k = 0; k < k_atoms; ++k) {
    const double* atom = dict_t_.row_ptr(k);
    double sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i) sum += atom[i] * y[i];
    alpha0[k] = sum;
  }
  return solve_batch_with_alpha0(y, alpha0);
}

OmpResult OmpSolver::solve_batch_with_alpha0(
    const linalg::Vector& y, const linalg::Vector& alpha0) const {
  const std::size_t k_atoms = dict_t_.rows();

  OmpResult out;
  out.coefficients.assign(k_atoms, 0.0);

  const double y_sq = linalg::dot(y, y);
  const double y_norm = std::sqrt(y_sq);
  if (y_norm == 0.0) return out;
  const double target = options_.residual_tol * y_norm;
  // The Gram recurrence for ||r||^2 carries absolute error ~eps*||y||^2, so
  // residual estimates below ~1e-6*||y|| are numerically meaningless. Once
  // the estimate enters this band the stopping decision falls back to an
  // exact O(k*M) residual, keeping tiny tolerances as sharp as the naive
  // path without paying the exact recompute on every iteration.
  const double verify_band = std::max(target, 1e-6 * y_norm);

  linalg::Vector alpha = alpha0;

  // Selection mask: 0.0 = skip (atom already in support or zero-norm).
  std::vector<double> live(k_atoms);
  for (std::size_t k = 0; k < k_atoms; ++k) {
    live[k] = col_norm_[k] == 0.0 ? 0.0 : 1.0;
  }
  std::vector<std::size_t> support;
  support.reserve(options_.max_atoms);
  linalg::CholeskyAppend chol(options_.max_atoms);
  linalg::Vector dt_y;
  dt_y.reserve(options_.max_atoms);
  linalg::Vector coef;

  for (std::size_t iter = 0; iter < options_.max_atoms; ++iter) {
    double best_score = 0.0;
    const std::size_t best = linalg::select_atom(
        alpha.data(), col_norm_.data(), live.data(), k_atoms, &best_score);
    if (best == k_atoms || best_score < 1e-15) break;

    // Cross terms come straight out of the precomputed Gram; the row read is
    // contiguous because G is symmetric.
    const double* gbest = gram_.row_ptr(best);
    linalg::Vector cross(support.size());
    for (std::size_t si = 0; si < support.size(); ++si) {
      cross[si] = gbest[support[si]];
    }
    if (!chol.append(cross, col_norm_[best] * col_norm_[best])) break;

    live[best] = 0.0;
    support.push_back(best);
    dt_y.push_back(alpha0[best]);
    coef = chol.solve(dt_y);
    out.iterations = iter + 1;

    // ||r||^2 = ||y||^2 - (A^T y)|_S . c, exact in exact arithmetic.
    double res_sq = y_sq;
    for (std::size_t si = 0; si < support.size(); ++si) {
      res_sq -= dt_y[si] * coef[si];
    }
    double res = std::sqrt(std::max(0.0, res_sq));
    if (res <= verify_band) res = support_residual_norm(y, support, coef);
    if (res <= target) break;

    if (iter + 1 < options_.max_atoms) {
      // alpha = alpha0 - G[:, S] c; columns read as rows by symmetry.
      alpha = alpha0;
      for (std::size_t si = 0; si < support.size(); ++si) {
        linalg::sub_scaled(alpha.data(), gram_.row_ptr(support[si]), coef[si],
                           k_atoms);
      }
    }
  }

  obs::counter("omp/iterations").inc(out.iterations);
  // Report the exactly recomputed residual so downstream consumers see the
  // same value the naive oracle would.
  out.residual_norm =
      support.empty() ? y_norm : support_residual_norm(y, support, coef);
  for (std::size_t si = 0; si < support.size(); ++si) {
    out.coefficients[support[si]] = coef[si];
  }
  out.support = std::move(support);
  return out;
}

OmpResult omp_solve(const linalg::Matrix& dictionary, const linalg::Vector& y,
                    OmpOptions options) {
  return OmpSolver(dictionary, options).solve(y);
}

}  // namespace efficsense::cs
