#pragma once
// Orthogonal Matching Pursuit with an incrementally updated Cholesky
// factorisation. Two selection engines share the support machinery:
//
//  - Batch (default): the Batch-OMP scheme of Rubinstein et al. — precompute
//    the Gram G = A^T A once per dictionary and alpha0 = A^T y once per
//    frame, then update atom correlations through G columns instead of
//    re-touching the residual. Per-iteration cost drops from O(M*K) to
//    O(K*k); the Gram is amortized over every frame solved against the same
//    dictionary (and, via arch::ReconstructorCache, over Monte-Carlo
//    instances and sweep points sharing a design).
//  - Naive: explicit residual re-correlation each iteration. Kept as the
//    reference oracle the equivalence tests check Batch against.
//
// The solver emits obs counters (omp/solves, omp/gram_builds) and timing
// histograms (time/omp_solve, time/omp_gram_build) so sidecars show where
// reconstruction time goes.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace efficsense::cs {

enum class OmpMode {
  Batch,  ///< Gram-based correlation updates (fast path)
  Naive,  ///< explicit residual re-correlation (reference oracle)
};

struct OmpOptions {
  std::size_t max_atoms = 0;      ///< 0 selects M/4 (a common heuristic)
  double residual_tol = 1e-4;     ///< stop when ||r|| <= tol * ||y||
  OmpMode mode = OmpMode::Batch;
};

struct OmpResult {
  linalg::Vector coefficients;    ///< sparse solution (size K)
  std::vector<std::size_t> support;
  double residual_norm = 0.0;
  std::size_t iterations = 0;
};

class OmpSolver {
 public:
  /// `dictionary` is M x K (measurements x atoms). Columns need not be
  /// normalized; atom selection divides by the precomputed column norms.
  /// Only the transpose (and, in Batch mode, the Gram) is retained — atoms
  /// are read exclusively row-wise in the hot loops.
  explicit OmpSolver(linalg::Matrix dictionary, OmpOptions options = {});

  OmpResult solve(const linalg::Vector& y) const;

  /// Multi-RHS solve against the shared Gram: one frame from each of K
  /// Monte-Carlo lanes. The alpha0 = A^T y pass is fused across lanes (each
  /// atom row is streamed through the cache once for all right-hand sides);
  /// the support iterations then run per lane, so results[l] is bit-identical
  /// to solve(ys[l]).
  std::vector<OmpResult> solve_multi(
      const std::vector<linalg::Vector>& ys) const;

  std::size_t measurements() const { return m_; }
  std::size_t atoms() const { return dict_t_.rows(); }
  const OmpOptions& options() const { return options_; }

  /// Precomputed Gram A^T A (empty in Naive mode).
  const linalg::Matrix& gram_matrix() const { return gram_; }

 private:
  OmpResult solve_naive(const linalg::Vector& y) const;
  OmpResult solve_batch(const linalg::Vector& y) const;
  /// Batch-mode support iterations for a precomputed alpha0 = A^T y. The
  /// atom selection scan and the alpha-update axpys run the lane kernels
  /// (linalg::select_atom / sub_scaled), whose AVX2 variants keep the
  /// scalar loops' exact IEEE results; single- and multi-RHS solves share
  /// this one loop.
  OmpResult solve_batch_with_alpha0(const linalg::Vector& y,
                                    const linalg::Vector& alpha0) const;
  /// ||y - A|_S c||, the same subtraction loop as the naive path, so both
  /// engines report bitwise-identical residuals for identical supports.
  double support_residual_norm(const linalg::Vector& y,
                               const std::vector<std::size_t>& support,
                               const linalg::Vector& coef) const;

  std::size_t m_ = 0;
  linalg::Matrix dict_t_;     // K x M (row access = atom access)
  linalg::Matrix gram_;       // K x K, Batch mode only
  linalg::Vector col_norm_;   // per-atom l2 norm
  OmpOptions options_;
};

/// One-shot convenience wrapper.
OmpResult omp_solve(const linalg::Matrix& dictionary, const linalg::Vector& y,
                    OmpOptions options = {});

}  // namespace efficsense::cs
