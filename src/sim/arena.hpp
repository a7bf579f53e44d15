#pragma once
// WaveformArena: a recycling pool for the sample buffers that flow through
// a model. Monte-Carlo sweeps run the same graph thousands of times with
// identically sized waveforms; the arena hands each block a buffer whose
// capacity was retained from the previous run, so the steady-state hot
// loop performs zero heap allocation.
//
// Lifetime rules:
//  - acquire(n) returns a vector resized to n with UNSPECIFIED contents —
//    the caller must write every element (all blocks do).
//  - release(...) donates storage back; the arena owns it until the next
//    acquire. Releasing is optional — an un-released buffer is simply
//    freed by its owner as usual.
//  - The arena is not thread-safe; each Model owns one, and scratch arenas
//    are cheap to construct empty.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace efficsense::sim {

class WaveformArena {
 public:
  /// A buffer of n doubles with unspecified contents. Prefers the pooled
  /// buffer whose capacity already fits n; falls back to the largest one.
  std::vector<double> acquire(std::size_t n);

  /// Donate a buffer's storage to the pool.
  void release(std::vector<double>&& buf);

  /// Number of buffers currently pooled.
  std::size_t pooled_buffers() const { return pool_.size(); }
  /// Total capacity (in doubles) currently pooled.
  std::size_t pooled_capacity() const;
  /// Cumulative acquires served from the pool vs. fresh allocations.
  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t fresh_allocs() const { return fresh_allocs_; }

  /// Drop all pooled storage.
  void clear();

 private:
  std::vector<std::vector<double>> pool_;
  std::uint64_t reuses_ = 0;
  std::uint64_t fresh_allocs_ = 0;
};

}  // namespace efficsense::sim
