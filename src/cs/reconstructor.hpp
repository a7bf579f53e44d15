#pragma once
// Frame-wise CS reconstruction facade: binds a sensing matrix (with its
// nominal charge-sharing weights), a sparsifying basis and a recovery
// solver, and turns measurement streams back into signal estimates.
//
// The dictionary A = Phi_eff * Psi is assembled through the CSR form of the
// s-SRBM in O(nnz * K) rather than the dense O(M * N * K), then handed to
// the registered solver's prepare() so per-dictionary state (OMP's Gram,
// AMP's column normalization) is built exactly once per Reconstructor.
// Solvers come from cs::SolverRegistry — see cs/solver.hpp for the
// registered ids and the registration contract. Every solve is timed on the
// solver-agnostic time/decode histogram (the sweep's "decode" stage).

#include <cstddef>
#include <memory>
#include <string>

#include "cs/effective.hpp"
#include "cs/solver.hpp"
#include "cs/srbm.hpp"
#include "linalg/matrix.hpp"

namespace efficsense {
class ThreadPool;
}

namespace efficsense::cs {

enum class BasisKind { Dct, Db4 };

struct ReconstructorConfig {
  /// Registry id of the recovery solver ("omp", "iht", "ista", "bsbl",
  /// "amp", "compressed_domain", ...). Empty selects "omp"; solver_id()
  /// resolves the effective id.
  std::string solver;
  /// Sparsifying basis: DCT (default) or Daubechies-4 wavelets. Both order
  /// atoms smooth-first, so the basis_atoms truncation applies equally.
  BasisKind basis = BasisKind::Dct;
  std::size_t sparsity = 0;     ///< atoms for OMP / K for IHT (0 = M/3)
  double residual_tol = 1e-3;   ///< OMP/BSBL/AMP stopping criterion
  std::size_t max_iters = 100;  ///< iterative-solver iteration cap
  /// Dictionary truncation: keep only the first `basis_atoms` DCT atoms
  /// (EEG energy lives below ~45 Hz, so high-frequency atoms only let the
  /// solver fit noise). 0 selects the automatic choice 0.85 * M. Set to
  /// N_Phi for the full, untruncated dictionary (ablation knob).
  std::size_t basis_atoms = 0;
  /// If false, reconstruct with the ideal binary Phi instead of the
  /// charge-sharing-aware effective matrix (ablation knob).
  bool compensate_decay = true;
  /// OMP selection engine; Naive is the reference oracle for tests.
  OmpMode omp_mode = OmpMode::Batch;

  /// Effective registry id: `solver` when set, else "omp".
  std::string solver_id() const { return solver.empty() ? "omp" : solver; }
};

class Reconstructor {
 public:
  /// `gains` carries the nominal a/b of the charge-sharing encoder. Pass
  /// {1.0, 0.0} when the measurements come from an ideal digital MAC.
  /// Throws Error for unknown solver ids and for registered solvers that do
  /// not reconstruct (compressed_domain routes around this class entirely).
  Reconstructor(const SparseBinaryMatrix& phi, ChargeSharingGains gains,
                ReconstructorConfig config = {});

  std::size_t frame_length() const { return n_; }
  std::size_t measurements_per_frame() const { return m_; }

  /// Recover one frame (y of size M) -> time-domain estimate of size N_Phi.
  linalg::Vector reconstruct_frame(const linalg::Vector& y) const;

  /// Recover a stream: measurements are consumed M at a time; a trailing
  /// partial frame is ignored. Output size = full_frames * N_Phi. The
  /// one-lane case of reconstruct_stream_multi.
  std::vector<double> reconstruct_stream(
      const std::vector<double>& measurements,
      ThreadPool* pool = nullptr) const;

  /// K-lane batched recovery for the SoA Monte-Carlo engine: lanes[l]
  /// points at lane l's measurement stream (`length` values each, e.g. a
  /// LaneBank row). Per frame window one multi-RHS solve runs across all
  /// lanes (fused against the shared Gram for OMP, the scalar per-lane
  /// fallback otherwise); out[l] is bit-identical to solving lane l's
  /// frames alone. Frames are independent, so a thread pool (optional)
  /// fans the windows out; results are written into place and identical to
  /// the serial order.
  std::vector<std::vector<double>> reconstruct_stream_multi(
      const std::vector<const double*>& lanes, std::size_t length,
      ThreadPool* pool = nullptr) const;

  /// Number of DCT atoms actually used after truncation.
  std::size_t active_atoms() const { return k_atoms_; }

 private:
  linalg::Vector synthesize(const SparseSolution& sol) const;
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t k_atoms_ = 0;
  ReconstructorConfig config_;
  linalg::Matrix psi_t_;  // k_atoms x N synthesis transpose (row = atom)
  std::shared_ptr<const PreparedSolver> prepared_;
};

}  // namespace efficsense::cs
