#pragma once
// The pluggable sparse-solver seam: a string-keyed registry of decode
// algorithms, mirroring arch::ArchRegistry (interface + registrar, built-ins
// registered by the registry constructor so static-library dead-stripping
// can never drop them).
//
// A SparseSolver is a stateless factory: prepare(dictionary) builds the
// per-dictionary state the solve loop amortizes (OMP's precomputed Gram,
// AMP's column-normalized dictionary, BSBL's block partition) and returns a
// PreparedSolver whose solve()/solve_multi() recover one frame per
// right-hand side. solve_multi has a scalar-fallback default (per-lane loop,
// bit-identical to solve per lane) so the K-lane Monte-Carlo engine works
// for every registered solver; solvers with a fused multi-RHS pass (Batch-
// OMP) override it.
//
// Registered built-ins (codes in parentheses are the stable numeric values
// the sweepable "solver" design axis uses — assigned in registration order):
//   omp (0), iht (1), ista (2), bsbl (3), amp (4), compressed_domain (5).
// compressed_domain is the registered "no-reconstruction" decode path: it
// never prepares a dictionary (reconstructs() == false) and the architecture
// layer routes it to a measurement-domain decoder instead of a
// cs::Reconstructor.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cs/omp.hpp"
#include "linalg/matrix.hpp"

namespace efficsense::cs {

/// One recovered frame in the sparsifying-basis domain. `sparse` selects the
/// synthesis path: true routes through support-ordered accumulation (OMP's
/// exact historical arithmetic), false through the dense Psi^T product the
/// iterative solvers always used — keeping both bit-identical to the
/// pre-registry enum dispatch.
struct SparseSolution {
  linalg::Vector coefficients;        ///< basis coefficients (size K atoms)
  std::vector<std::size_t> support;   ///< nonzero atoms (meaningful if sparse)
  bool sparse = false;
  double residual_norm = 0.0;
  std::size_t iterations = 0;
};

/// The solver knobs of ReconstructorConfig, decoupled from the facade so
/// solvers do not depend on cs/reconstructor.hpp.
struct SolverOptions {
  std::size_t sparsity = 0;     ///< atoms for OMP / K for IHT (0 = auto)
  double residual_tol = 1e-3;   ///< stopping criterion (||r|| <= tol*||y||)
  std::size_t max_iters = 100;  ///< iteration cap for iterative solvers
  OmpMode omp_mode = OmpMode::Batch;  ///< OMP selection engine
};

/// Per-dictionary prepared state + the solve loop. Immutable after
/// construction; shared across threads (the ReconstructorCache hands the
/// owning Reconstructor out concurrently).
class PreparedSolver {
 public:
  virtual ~PreparedSolver() = default;

  virtual SparseSolution solve(const linalg::Vector& y) const = 0;

  /// Multi-RHS solve (one frame from each Monte-Carlo lane). The default is
  /// the scalar fallback — a per-lane solve() loop, bit-identical lane for
  /// lane — so lane batching keeps working for every solver. Solvers with a
  /// fused pass (Batch-OMP's shared A^T y streaming) override it.
  virtual std::vector<SparseSolution> solve_multi(
      const std::vector<linalg::Vector>& ys) const;
};

class SparseSolver {
 public:
  virtual ~SparseSolver() = default;

  /// Stable registry key (e.g. "bsbl").
  virtual std::string id() const = 0;
  /// One-line human description (run_sweep --list-solvers).
  virtual std::string description() const = 0;

  /// False for decode paths that skip reconstruction entirely
  /// (compressed_domain): prepare() then throws and the architecture layer
  /// builds a measurement-domain decoder instead of a Reconstructor.
  virtual bool reconstructs() const { return true; }

  /// Build the per-dictionary state. `dictionary` is M x K (measurements x
  /// atoms), moved in so the prepared solver owns the only copy.
  virtual std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const = 0;
};

/// Process-wide, thread-safe id -> SparseSolver registry. Construction
/// registers the built-ins. Each solver also gets a stable numeric code
/// (registration order) so "solver" can be swept like any numeric design
/// axis.
class SolverRegistry {
 public:
  static SolverRegistry& instance();

  /// Register a solver; throws Error on a duplicate id.
  void add(std::unique_ptr<SparseSolver> solver);

  /// Lookup by id; throws Error naming the registered ids on a miss.
  const SparseSolver& get(const std::string& id) const;
  /// Lookup by id; nullptr on a miss.
  const SparseSolver* find(const std::string& id) const;
  bool contains(const std::string& id) const { return find(id) != nullptr; }

  /// Numeric code of a registered id (the "solver" axis value); throws
  /// Error listing the registered ids on a miss.
  int code_of(const std::string& id) const;
  /// Id behind a numeric axis code; throws Error on an unknown code.
  std::string id_of_code(int code) const;

  /// Registered solvers sorted by id.
  std::vector<const SparseSolver*> list() const;
  /// "amp, bsbl, ..." — for error messages.
  std::string known_ids() const;

 private:
  SolverRegistry();

  mutable std::mutex mutex_;
  // Sorted by id so list() order is deterministic; codes_ maps registration
  // order -> id (codes are append-only, never reused).
  std::vector<std::unique_ptr<SparseSolver>> solvers_;
  std::vector<std::string> codes_;
};

/// Self-registration helper for solvers living outside this library:
///   static cs::SolverRegistrar reg(std::make_unique<MySolver>());
/// (The built-ins do not rely on this — the registry constructor registers
/// them directly, immune to static-library dead-stripping.)
struct SolverRegistrar {
  explicit SolverRegistrar(std::unique_ptr<SparseSolver> solver);
};

}  // namespace efficsense::cs
