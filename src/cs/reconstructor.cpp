#include "cs/reconstructor.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "cs/basis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace efficsense::cs {

namespace {

/// Solve through `solve` and observe its wall time on time/decode: the one
/// decode instrument every reconstructing solver reports to.
template <class Solve>
auto timed_decode(Solve&& solve) {
  const auto start = std::chrono::steady_clock::now();
  auto out = solve();
  obs::histogram("time/decode")
      .observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  return out;
}

}  // namespace

Reconstructor::Reconstructor(const SparseBinaryMatrix& phi,
                             ChargeSharingGains gains,
                             ReconstructorConfig config)
    : m_(phi.rows()), n_(phi.cols()), config_(config) {
  EFF_REQUIRE(m_ > 0 && n_ > 0, "empty sensing matrix");
  EFFICSENSE_SPAN("recon/setup");

  const std::string solver_id = config_.solver_id();
  const SparseSolver& solver = SolverRegistry::instance().get(solver_id);
  if (!solver.reconstructs()) {
    throw Error("solver '" + solver_id +
                "' does not reconstruct; the architecture layer must route "
                "it to a measurement-domain decoder instead of a "
                "cs::Reconstructor");
  }

  // Truncate the DCT dictionary to the low-frequency atoms that carry EEG
  // energy; the automatic choice keeps the system comfortably solvable.
  k_atoms_ = config_.basis_atoms;
  if (k_atoms_ == 0) {
    k_atoms_ = std::max<std::size_t>(
        16, static_cast<std::size_t>(0.85 * static_cast<double>(m_)));
  }
  k_atoms_ = std::min(k_atoms_, n_);

  const linalg::Matrix psi_full = (config_.basis == BasisKind::Db4)
                                      ? db4_synthesis_matrix(n_)
                                      : dct_synthesis_matrix(n_);
  linalg::Matrix psi_trunc(n_, k_atoms_);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = 0; k < k_atoms_; ++k) {
      psi_trunc(r, k) = psi_full(r, k);
    }
  }

  // Assemble A = Phi_eff * Psi through the CSR sensing operator: O(nnz * K)
  // instead of the dense O(M * N * K), bitwise identical to the dense path.
  linalg::Matrix dictionary =
      config_.compensate_decay
          ? effective_dictionary(phi, gains.a, gains.b, psi_trunc)
          : phi.csr().dense_product(psi_trunc);
  psi_t_ = psi_trunc.transposed();

  SolverOptions opts;
  opts.sparsity = config_.sparsity;
  opts.residual_tol = config_.residual_tol;
  opts.max_iters = config_.max_iters;
  opts.omp_mode = config_.omp_mode;
  prepared_ = solver.prepare(std::move(dictionary), opts);
}

linalg::Vector Reconstructor::synthesize(const SparseSolution& sol) const {
  if (!sol.sparse) {
    return linalg::matvec_transposed(psi_t_, sol.coefficients);
  }
  // Synthesize from the support alone: O(k * N) instead of O(K * N).
  // Atoms are visited in ascending index order, so every output sample
  // accumulates its terms in the same order a dense Psi * c would.
  std::vector<std::size_t> atoms = sol.support;
  std::sort(atoms.begin(), atoms.end());
  linalg::Vector out(n_, 0.0);
  for (const std::size_t atom : atoms) {
    const double c = sol.coefficients[atom];
    const double* row = psi_t_.row_ptr(atom);
    for (std::size_t r = 0; r < n_; ++r) out[r] += c * row[r];
  }
  return out;
}

linalg::Vector Reconstructor::reconstruct_frame(const linalg::Vector& y) const {
  EFF_REQUIRE(y.size() == m_, "measurement frame has wrong size");
  return synthesize(timed_decode([&] { return prepared_->solve(y); }));
}

std::vector<double> Reconstructor::reconstruct_stream(
    const std::vector<double>& measurements, ThreadPool* pool) const {
  return std::move(
      reconstruct_stream_multi({measurements.data()}, measurements.size(),
                               pool)
          .front());
}

std::vector<std::vector<double>> Reconstructor::reconstruct_stream_multi(
    const std::vector<const double*>& lanes, std::size_t length,
    ThreadPool* pool) const {
  const std::size_t n_lanes = lanes.size();
  const std::size_t frames = length / m_;
  std::vector<std::vector<double>> out(n_lanes,
                                       std::vector<double>(frames * n_, 0.0));
  if (n_lanes == 0 || frames == 0) return out;

  // One multi-RHS solve per frame window: Batch-OMP fuses the A^T y pass
  // across lanes against the shared Gram, every other solver takes the
  // scalar per-lane fallback; per-lane results are bit-identical to solving
  // that lane's frame alone either way.
  const auto recover_frame = [&](std::size_t f) {
    std::vector<linalg::Vector> ys(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      ys[l].assign(lanes[l] + f * m_, lanes[l] + (f + 1) * m_);
    }
    const std::vector<SparseSolution> results =
        timed_decode([&] { return prepared_->solve_multi(ys); });
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const linalg::Vector x = synthesize(results[l]);
      std::copy(x.begin(), x.end(), out[l].begin() + f * n_);
    }
  };
  if (pool != nullptr && pool->size() > 1 && frames > 1) {
    pool->parallel_for(frames, recover_frame);
  } else {
    for (std::size_t f = 0; f < frames; ++f) recover_frame(f);
  }
  return out;
}

}  // namespace efficsense::cs
