#include "arch/recon_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace efficsense::arch {

std::string reconstructor_cache_key(const power::DesignParams& design,
                                    const ChainSeeds& seeds,
                                    const cs::ReconstructorConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << "phi=" << seeds.phi << ";m=" << design.cs_m << ";n=" << design.cs_n_phi
     << ";s=" << design.cs_sparsity
     << ";style=" << static_cast<int>(design.cs_style)
     << ";cs=" << design.cs_c_sample_f << ";ch=" << design.cs_c_hold_f
     << ";ci=" << design.cs_c_int_f
     << ";basis=" << static_cast<int>(config.basis)
     << ";k=" << config.sparsity << ";tol=" << config.residual_tol
     << ";iters=" << config.max_iters << ";atoms=" << config.basis_atoms
     << ";comp=" << (config.compensate_decay ? 1 : 0)
     << ";mode=" << static_cast<int>(config.omp_mode)
     << ";solver=" << config.solver_id();
  return os.str();
}

ReconstructorCache& ReconstructorCache::instance() {
  static ReconstructorCache cache;
  return cache;
}

ReconstructorCache::ReconstructorCache()
    : capacity_(static_cast<std::size_t>(
          std::max<std::int64_t>(0, env_int("EFFICSENSE_RECON_CACHE", 16)))) {}

std::shared_ptr<const cs::Reconstructor> ReconstructorCache::get(
    const power::DesignParams& design, const ChainSeeds& seeds,
    const cs::ReconstructorConfig& config) {
  if (capacity_ == 0) {
    obs::counter("omp/cache_misses").inc();
    return std::make_shared<const cs::Reconstructor>(
        make_matched_reconstructor(design, seeds, config));
  }

  const std::string key = reconstructor_cache_key(design, seeds, config);
  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      obs::counter("omp/cache_hits").inc();
      return it->second->recon;
    }
  }

  obs::counter("omp/cache_misses").inc();
  EFFICSENSE_SPAN("recon_cache/build");
  auto built = std::make_shared<const cs::Reconstructor>(
      make_matched_reconstructor(design, seeds, config));

  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread built the same key while we did; keep the first one so
    // every caller shares a single dictionary + Gram.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->recon;
  }
  lru_.push_front(Entry{key, std::move(built)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return lru_.front().recon;
}

void ReconstructorCache::clear() {
  std::lock_guard lock(mutex_);
  index_.clear();
  lru_.clear();
}

std::size_t ReconstructorCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

}  // namespace efficsense::arch
