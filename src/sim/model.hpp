#pragma once
// The model graph: blocks wired port-to-port, scheduled topologically and
// executed once per run. Unconnected output ports become the model outputs
// (scopes); blocks without inputs are sources.
//
// One executor: run_batch(K) walks the cached schedule once and advances
// every block across K Monte-Carlo lanes through Block::process_batch();
// run() is its K=1 case. The topological schedule and the port-routing
// table are computed once and cached (invalidated by add()/connect()), and
// every output bank is recycled through a WaveformArena, so repeated runs
// pay zero graph overhead and no steady-state sample-buffer allocation.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/arena.hpp"
#include "sim/block.hpp"
#include "sim/report.hpp"
#include "sim/waveform.hpp"

namespace efficsense::sim {

using BlockId = std::size_t;

/// Per-block execution accounting accumulated across runs: how many
/// times each block ran, how many samples it emitted and how much wall time
/// it took. The runtime twin of PowerReport — where the *simulation* cost
/// goes, next to where the modeled energy goes.
struct RunStats {
  struct BlockStats {
    std::string name;
    std::uint64_t runs = 0;
    std::uint64_t samples_out = 0;
    double seconds = 0.0;
  };
  std::uint64_t runs = 0;       ///< completed run()/run_batch() calls
  double total_seconds = 0.0;   ///< wall time inside them
  std::vector<BlockStats> blocks;  ///< in block-id order

  /// Aligned per-block table with time shares (mirrors PowerReport::to_string).
  std::string to_string() const;
};

struct PortRef {
  BlockId block = 0;
  std::size_t port = 0;
  friend bool operator<(const PortRef& a, const PortRef& b) {
    return a.block != b.block ? a.block < b.block : a.port < b.port;
  }
  friend bool operator==(const PortRef& a, const PortRef& b) {
    return a.block == b.block && a.port == b.port;
  }
};

class Model {
 public:
  Model();

  /// Takes ownership; block names must be unique within the model.
  BlockId add(BlockPtr block);

  /// Convenience: construct the block in place and return a typed reference.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto ptr = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *ptr;
    add(std::move(ptr));
    return ref;
  }

  std::size_t num_blocks() const { return blocks_.size(); }
  Block& block(BlockId id);
  const Block& block(BlockId id) const;
  /// Lookup by unique name; throws if absent.
  Block& block(const std::string& name);
  const Block& block(const std::string& name) const;
  BlockId id_of(const std::string& name) const;
  bool has_block(const std::string& name) const;

  /// Wire src output port -> dst input port. Each input accepts exactly one
  /// driver; outputs may fan out.
  void connect(BlockId src, std::size_t src_port, BlockId dst, std::size_t dst_port);
  /// Shorthand for single-port blocks.
  void connect(BlockId src, BlockId dst) { connect(src, 0, dst, 0); }
  void connect(const std::string& src, const std::string& dst);

  /// Chain a sequence of single-port blocks in order.
  void chain(const std::vector<BlockId>& ids);

  /// Execute the model once: the K=1 case of run_batch(). Every input port
  /// must be driven; returns the waveforms of all unconnected output ports
  /// in (block-id, port) order.
  std::vector<Waveform> run();

  /// Execute the model across `lanes` Monte-Carlo lanes in lockstep: the
  /// cached StepPlan is walked once and each block advances all lanes via
  /// process_batch() (structure-of-arrays LaneBanks, recycled through the
  /// arena). Returns pointers to the unconnected output ports' banks in
  /// (block-id, port) order; they stay valid until the next
  /// run()/run_batch()/reset(). Lane k of every bank is bit-identical to
  /// what run() would produce for the instance the lane was seeded as (see
  /// Block::process_batch for the contract).
  std::vector<const LaneBank*> run_batch(std::size_t lanes);

  /// Lane 0 of a specific output port during the last run() or run_batch()
  /// (tap / scope support, also for connected ports).
  Waveform probe(const std::string& block_name, std::size_t port = 0) const;

  /// Bank observed on a specific output port during the last run() or
  /// run_batch() (one lane after run()).
  const LaneBank& probe_batch(const std::string& block_name,
                              std::size_t port = 0) const;

  /// Reset all block state and rewind the run index to 0 (does not clear
  /// wiring or the cached schedule).
  void reset();

  /// Position the model at run `r`: the next run()/run_batch() is
  /// bit-identical to the r-th (0-based) run of a freshly built or reset
  /// model, because every noise block seeds each run from its run index and
  /// no library block's output depends on an earlier run. Runs advance the
  /// index by themselves, so sequential callers never seek; a pooled caller
  /// seeks each chain to the segment it was handed.
  void seek_run(std::uint64_t r) { run_ = r; }
  /// Index of the next run (0 after construction or reset()).
  std::uint64_t run_index() const { return run_; }

  /// Aggregate analytic power / area of all blocks.
  PowerReport power_report() const;
  AreaReport area_report() const;

  /// Execution accounting accumulated over every run() and run_batch()
  /// since construction (or the last reset_run_stats()).
  const RunStats& run_stats() const { return run_stats_; }
  void reset_run_stats();

  /// The arena backing this model's waveform buffers (introspection).
  const WaveformArena& arena() const { return arena_; }

  /// Graphviz DOT rendering of the block diagram (nodes annotated with the
  /// analytic power), for documentation and debugging.
  std::string to_dot() const;

 private:
  /// One scheduled block execution: where its inputs come from and where
  /// its outputs go, resolved to dense slot indices.
  struct StepPlan {
    BlockId id = 0;
    std::vector<std::size_t> input_slots;  ///< driver slot per input port
    std::size_t first_output_slot = 0;
    std::string time_hist_name;            ///< "time/block/<name>"
  };

  /// Rebuild the schedule/routing cache if wiring changed since last run.
  void ensure_plan();
  /// Walk the plan once at `lanes` lanes. Every run records the same
  /// metrics: sim/batch_runs, sim/lanes_active, time/block_run and
  /// time/block/<name>, under block/<name> spans.
  void execute(std::size_t lanes);

  std::vector<BlockPtr> blocks_;
  std::map<std::string, BlockId> by_name_;
  std::map<PortRef, PortRef> input_driver_;           // dst input -> src output
  std::map<PortRef, std::vector<PortRef>> fanout_;    // src output -> dst inputs
  RunStats run_stats_;
  std::uint64_t run_ = 0;  // run index, seeked into every block per run

  // Cached execution plan; invalidated by add()/connect().
  bool plan_valid_ = false;
  std::vector<StepPlan> plan_;
  std::vector<std::size_t> slot_of_block_;   // block id -> first output slot
  std::vector<std::size_t> model_output_slots_;  // unconnected outputs
  std::size_t num_slots_ = 0;

  // Output banks by slot, recycled run-to-run through the arena.
  WaveformArena arena_;
  std::vector<LaneBank> bank_slots_;
  std::size_t bank_slots_written_ = 0;       // slots valid for probe()

  std::vector<BlockId> topological_order() const;
};

}  // namespace efficsense::sim
