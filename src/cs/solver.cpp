#include "cs/solver.hpp"

#include <algorithm>
#include <utility>

#include "cs/amp.hpp"
#include "cs/bsbl.hpp"
#include "cs/iterative.hpp"
#include "util/error.hpp"

namespace efficsense::cs {

std::vector<SparseSolution> PreparedSolver::solve_multi(
    const std::vector<linalg::Vector>& ys) const {
  std::vector<SparseSolution> out;
  out.reserve(ys.size());
  for (const linalg::Vector& y : ys) out.push_back(solve(y));
  return out;
}

namespace {

// -- omp ---------------------------------------------------------------------

SparseSolution from_omp(OmpResult res) {
  SparseSolution sol;
  sol.coefficients = std::move(res.coefficients);
  sol.support = std::move(res.support);
  sol.sparse = true;
  sol.residual_norm = res.residual_norm;
  sol.iterations = res.iterations;
  return sol;
}

class OmpPrepared final : public PreparedSolver {
 public:
  OmpPrepared(linalg::Matrix dictionary, const SolverOptions& options)
      : solver_(std::move(dictionary), omp_options(options)) {}

  SparseSolution solve(const linalg::Vector& y) const override {
    return from_omp(solver_.solve(y));
  }

  std::vector<SparseSolution> solve_multi(
      const std::vector<linalg::Vector>& ys) const override {
    std::vector<OmpResult> results = solver_.solve_multi(ys);
    std::vector<SparseSolution> out;
    out.reserve(results.size());
    for (OmpResult& res : results) out.push_back(from_omp(std::move(res)));
    return out;
  }

 private:
  static OmpOptions omp_options(const SolverOptions& options) {
    // Exactly the historical ReconstructorConfig -> OmpOptions mapping; the
    // auto sparsity M/3 is resolved by the caller (needs M) via sparsity==0.
    OmpOptions opts;
    opts.max_atoms = options.sparsity;
    opts.residual_tol = options.residual_tol;
    opts.mode = options.omp_mode;
    return opts;
  }

  OmpSolver solver_;
};

class OmpSolverEntry final : public SparseSolver {
 public:
  std::string id() const override { return "omp"; }
  std::string description() const override {
    return "orthogonal matching pursuit (Batch-OMP, precomputed Gram)";
  }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const override {
    SolverOptions resolved = options;
    if (resolved.sparsity == 0) {
      resolved.sparsity = std::max<std::size_t>(1, dictionary.rows() / 3);
    }
    return std::make_shared<OmpPrepared>(std::move(dictionary), resolved);
  }
};

// -- iht / ista --------------------------------------------------------------

class IhtPrepared final : public PreparedSolver {
 public:
  IhtPrepared(linalg::Matrix dictionary, const SolverOptions& options)
      : dictionary_(std::move(dictionary)) {
    options_.sparsity = options.sparsity;
    options_.max_iters = options.max_iters;
  }

  SparseSolution solve(const linalg::Vector& y) const override {
    SparseSolution sol;
    sol.coefficients = iht_solve(dictionary_, y, options_);
    return sol;
  }

 private:
  linalg::Matrix dictionary_;
  IhtOptions options_;
};

class IhtSolverEntry final : public SparseSolver {
 public:
  std::string id() const override { return "iht"; }
  std::string description() const override {
    return "iterative hard thresholding (keep-K gradient projection)";
  }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const override {
    return std::make_shared<IhtPrepared>(std::move(dictionary), options);
  }
};

class IstaPrepared final : public PreparedSolver {
 public:
  IstaPrepared(linalg::Matrix dictionary, const SolverOptions& options)
      : dictionary_(std::move(dictionary)) {
    options_.max_iters = options.max_iters;
  }

  SparseSolution solve(const linalg::Vector& y) const override {
    SparseSolution sol;
    sol.coefficients = ista_solve(dictionary_, y, options_);
    return sol;
  }

 private:
  linalg::Matrix dictionary_;
  IstaOptions options_;
};

class IstaSolverEntry final : public SparseSolver {
 public:
  std::string id() const override { return "ista"; }
  std::string description() const override {
    return "iterative soft thresholding (l1 proximal gradient)";
  }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const override {
    return std::make_shared<IstaPrepared>(std::move(dictionary), options);
  }
};

// -- bsbl --------------------------------------------------------------------

class BsblPrepared final : public PreparedSolver {
 public:
  BsblPrepared(const linalg::Matrix& dictionary, const SolverOptions& options)
      : solver_(dictionary, bsbl_options(options)) {}

  SparseSolution solve(const linalg::Vector& y) const override {
    BsblResult res = solver_.solve(y);
    SparseSolution sol;
    sol.coefficients = std::move(res.coefficients);
    sol.residual_norm = res.residual_norm;
    sol.iterations = res.iterations;
    return sol;
  }

 private:
  static BsblOptions bsbl_options(const SolverOptions& options) {
    BsblOptions opts;
    opts.max_iters = options.max_iters;
    opts.residual_tol = options.residual_tol;
    return opts;
  }

  BsblSolver solver_;
};

class BsblSolverEntry final : public SparseSolver {
 public:
  std::string id() const override { return "bsbl"; }
  std::string description() const override {
    return "block-sparse Bayesian learning (BSBL-BO, 8-atom blocks)";
  }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const override {
    return std::make_shared<BsblPrepared>(dictionary, options);
  }
};

// -- amp ---------------------------------------------------------------------

class AmpPrepared final : public PreparedSolver {
 public:
  AmpPrepared(linalg::Matrix dictionary, const SolverOptions& options)
      : dictionary_(std::move(dictionary)) {
    options_.max_iters = options.max_iters;
    options_.residual_tol = options.residual_tol;
  }

  SparseSolution solve(const linalg::Vector& y) const override {
    AmpResult res = amp_solve(dictionary_, y, options_);
    SparseSolution sol;
    sol.coefficients = std::move(res.coefficients);
    sol.residual_norm = res.residual_norm;
    sol.iterations = res.iterations;
    return sol;
  }

 private:
  linalg::Matrix dictionary_;
  AmpOptions options_;
};

class AmpSolverEntry final : public SparseSolver {
 public:
  std::string id() const override { return "amp"; }
  std::string description() const override {
    return "approximate message passing (Onsager correction, damped)";
  }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix dictionary, const SolverOptions& options) const override {
    return std::make_shared<AmpPrepared>(std::move(dictionary), options);
  }
};

// -- compressed_domain -------------------------------------------------------

class CompressedDomainEntry final : public SparseSolver {
 public:
  std::string id() const override { return "compressed_domain"; }
  std::string description() const override {
    return "no reconstruction: detector runs directly on the measurements";
  }
  bool reconstructs() const override { return false; }
  std::shared_ptr<const PreparedSolver> prepare(
      linalg::Matrix, const SolverOptions&) const override {
    throw Error(
        "solver 'compressed_domain' does not reconstruct; route it to a "
        "measurement-domain decoder instead of a cs::Reconstructor");
  }
};

}  // namespace

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

SolverRegistry::SolverRegistry() {
  // Built-ins are registered here, not via static SolverRegistrar objects, so
  // linking the cs library as a static archive cannot dead-strip them. The
  // registration order fixes the numeric axis codes: omp=0, iht=1, ista=2,
  // bsbl=3, amp=4, compressed_domain=5.
  add(std::make_unique<OmpSolverEntry>());
  add(std::make_unique<IhtSolverEntry>());
  add(std::make_unique<IstaSolverEntry>());
  add(std::make_unique<BsblSolverEntry>());
  add(std::make_unique<AmpSolverEntry>());
  add(std::make_unique<CompressedDomainEntry>());
}

void SolverRegistry::add(std::unique_ptr<SparseSolver> solver) {
  EFF_REQUIRE(solver != nullptr, "cannot register a null solver");
  const std::string id = solver->id();
  EFF_REQUIRE(!id.empty(), "solver id must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto pos = std::lower_bound(
      solvers_.begin(), solvers_.end(), id,
      [](const std::unique_ptr<SparseSolver>& entry, const std::string& key) {
        return entry->id() < key;
      });
  if (pos != solvers_.end() && (*pos)->id() == id) {
    throw Error("solver '" + id + "' is already registered");
  }
  solvers_.insert(pos, std::move(solver));
  codes_.push_back(id);
}

const SparseSolver* SolverRegistry::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto pos = std::lower_bound(
      solvers_.begin(), solvers_.end(), id,
      [](const std::unique_ptr<SparseSolver>& entry, const std::string& key) {
        return entry->id() < key;
      });
  if (pos != solvers_.end() && (*pos)->id() == id) return pos->get();
  return nullptr;
}

const SparseSolver& SolverRegistry::get(const std::string& id) const {
  const SparseSolver* solver = find(id);
  if (solver == nullptr) {
    throw Error("unknown solver '" + id + "'; registered solvers: " +
                known_ids() + " (run_sweep --list-solvers prints details)");
  }
  return *solver;
}

int SolverRegistry::code_of(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < codes_.size(); ++i) {
    if (codes_[i] == id) return static_cast<int>(i);
  }
  std::string known;
  for (const auto& entry : solvers_) {
    if (!known.empty()) known += ", ";
    known += entry->id();
  }
  throw Error("unknown solver '" + id + "'; registered solvers: " + known +
              " (run_sweep --list-solvers prints details)");
}

std::string SolverRegistry::id_of_code(int code) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (code < 0 || static_cast<std::size_t>(code) >= codes_.size()) {
    std::string known;
    for (std::size_t i = 0; i < codes_.size(); ++i) {
      if (!known.empty()) known += ", ";
      known += codes_[i] + "=" + std::to_string(i);
    }
    throw Error("unknown solver code " + std::to_string(code) +
                "; registered codes: " + known);
  }
  return codes_[static_cast<std::size_t>(code)];
}

std::vector<const SparseSolver*> SolverRegistry::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const SparseSolver*> out;
  out.reserve(solvers_.size());
  for (const auto& entry : solvers_) out.push_back(entry.get());
  return out;
}

std::string SolverRegistry::known_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& entry : solvers_) {
    if (!out.empty()) out += ", ";
    out += entry->id();
  }
  return out;
}

SolverRegistrar::SolverRegistrar(std::unique_ptr<SparseSolver> solver) {
  SolverRegistry::instance().add(std::move(solver));
}

}  // namespace efficsense::cs
