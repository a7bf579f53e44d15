#pragma once
// BSBL-BO: block-sparse Bayesian learning with bound optimization
// (Zhang & Rao; applied to energy-efficient EEG telemonitoring in Liu et
// al., arXiv:1309.7843). EEG frames are block-sparse in the DCT/Db4 bases —
// energy clusters in runs of adjacent atoms — and BSBL learns one variance
// hyperparameter per block of consecutive atoms instead of per atom, which
// is why it recovers EEG at compression ratios where atom-wise solvers
// fall apart.
//
// The model: y = A x + noise, x partitioned into blocks of `block_size`
// consecutive atoms, block i Gaussian with covariance gamma_i * I, noise
// white with variance lambda. Each BO iteration
//   1. assembles Sigma_y = lambda*I + sum_j gamma(j) a_j a_j^T from the
//      unpruned atoms only (pruned blocks contribute nothing), and factors
//      it Sigma_y = L L^T in place (linalg::cholesky);
//   2. runs ONE multi-RHS forward substitution L^{-1} [A_active | y],
//      which yields every trace term a_j^T Sigma_y^{-1} a_j = ||L^{-1} a_j||^2
//      as a column norm, and v = Sigma_y^{-1} y after one back substitution;
//   3. applies the fixed-point update
//        gamma_i <- gamma_i * ||q_i||_2 / sqrt(trace(S_i)),
//        q_i = A_i^T v,   trace(S_i) = sum_{j in block i} ||L^{-1} a_j||^2,
//      and prunes blocks whose gamma drops below prune_gamma * max gamma;
//   4. unless lambda is fixed, learns it by the type-II EM rule
//        lambda <- (lambda^2 ||v||^2 + lambda (M - lambda T)) / M,
//      T = tr(Sigma_y^{-1}) = ||L^{-1}||_F^2 from the triangular inverse
//      (y - A mu = lambda v), clamped to [1e-12, ||y||^2 / M].
// The loop stops at max_iters or when the largest relative change of any
// gamma (and of lambda) drops below gamma_tol. The posterior mean
// mu_j = gamma(j) a_j^T Sigma_y^{-1} y with the final hyperparameters is the
// recovered frame. All workspace is sized once per solve; the BO loop does
// not allocate.
//
// Bitwise contract: fully deterministic (no RNG, fixed iteration order),
// and every value keeps the operation sequence of the plain per-atom loop
// (one solve_lower per atom, tr(Sigma_y^{-1}) from unit-vector solves):
// each sum runs in ascending index order, no multiply-add is contracted
// and no reduction is reassociated; vector units only compute independent
// values side by side. Results are therefore bit-identical to that loop,
// which tests/test_solvers.cpp pins by digest.

#include <cstddef>

#include "linalg/matrix.hpp"

namespace efficsense::cs {

struct BsblOptions {
  std::size_t block_size = 8;   ///< atoms per block (last block may be short)
  std::size_t max_iters = 100;  ///< BO iteration cap
  double residual_tol = 1e-3;   ///< seeds the learned noise variance lambda
  double prune_gamma = 1e-4;    ///< prune blocks with gamma < prune*max gamma
  /// Noise variance. A positive value is held fixed for the whole solve;
  /// 0 (or any non-positive value) learns lambda by the EM rule above,
  /// starting from max(1e-12, (residual_tol*||y||)^2 / M).
  double lambda = 0.0;
  double gamma_tol = 1e-6;      ///< stop when max relative change drops
};

struct BsblResult {
  linalg::Vector coefficients;  ///< posterior mean, size = dictionary cols
  double residual_norm = 0.0;   ///< ||y - A*mu||_2
  std::size_t iterations = 0;   ///< BO iterations performed
};

/// BSBL-BO against one dictionary: the transposed dictionary (atoms as
/// contiguous rows, the only layout the BO loop reads) is built once here
/// and shared by every solve.
class BsblSolver {
 public:
  /// `dictionary` is M x K (measurements x atoms).
  explicit BsblSolver(const linalg::Matrix& dictionary,
                      BsblOptions options = {});

  BsblResult solve(const linalg::Vector& y) const;

 private:
  linalg::Matrix atoms_;  // K x M: atom j is row j
  BsblOptions options_;
};

/// One-shot convenience: BsblSolver(dictionary, options).solve(y).
BsblResult bsbl_solve(const linalg::Matrix& dictionary,
                      const linalg::Vector& y, BsblOptions options = {});

}  // namespace efficsense::cs
