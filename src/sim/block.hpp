#pragma once
// The block abstraction: the C++ equivalent of a Simulink library block.
// A block transforms input waveforms into output waveforms (functional
// model) and can report analytic power and capacitor-area estimates (power
// model) — the paper's key idea of keeping both models attached to the same
// component.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/lane_bank.hpp"
#include "sim/params.hpp"
#include "sim/waveform.hpp"

namespace efficsense::sim {

class WaveformArena;

class Block {
 public:
  Block(std::string name, std::size_t num_inputs, std::size_t num_outputs);
  virtual ~Block() = default;

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const std::string& name() const { return name_; }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

  // A block overrides exactly one of process() and process_batch(); the
  // default of each is written in terms of the other (DESIGN.md §8).

  /// Functional model, the scalar authoring API: consume one waveform per
  /// input port, produce one per output port. The default wraps the inputs
  /// as one-lane banks, runs process_batch() at K=1 over a scratch arena,
  /// advances run_index() and returns lane 0 — so a block that only writes
  /// its lane kernel is still callable one waveform at a time.
  virtual std::vector<Waveform> process(const std::vector<Waveform>& inputs);

  /// The kernel Model::run() (K=1) and Model::run_batch() call: one call
  /// advances all `lanes` Monte-Carlo lanes of this block at once. `inputs`
  /// holds one LaneBank per input port; the implementation must append
  /// exactly num_outputs() banks (each with `lanes` lanes) to `outputs`,
  /// taking their storage from `arena`.
  ///
  /// Default contract, for blocks that only override process():
  ///  - all inputs uniform -> the block is assumed lane-invariant: process()
  ///    runs ONCE and the result is broadcast as a uniform bank. This is
  ///    bit-exact for every block whose state is shared across lanes.
  ///  - some input per-lane -> per-lane fallback: process() runs once per
  ///    lane. This keeps process()-only blocks running under the batched
  ///    path; blocks that hold per-run noise streams or per-lane
  ///    fabrication state MUST override this method instead to stay
  ///    bit-identical per lane.
  virtual void process_batch(std::size_t lanes,
                             const std::vector<const LaneBank*>& inputs,
                             std::vector<LaneBank>& outputs,
                             WaveformArena& arena);

  /// Clear internal state (filters) and restart the per-run noise streams
  /// at run 0. Overrides must call Block::reset().
  virtual void reset() { run_ = 0; }

  /// Position the per-run noise streams: the next run draws exactly what
  /// run `r` (0-based) of a freshly reset block draws. Model::run() and
  /// Model::run_batch() seek every block to the model's run index before
  /// running it; CompositeBlock forwards the seek to its inner model.
  virtual void seek_run(std::uint64_t r) { run_ = r; }

  /// Index of the run the next process()/process_batch() computes. Noise
  /// blocks seed each run's stream from derive_seed(seed, run_index()), so
  /// a run is fully determined by its index. process() advances it;
  /// process_batch() reads it and leaves the advancing to its caller.
  std::uint64_t run_index() const { return run_; }

  /// Analytic average power estimate [W] for the current configuration.
  /// Zero for ideal/mathematical blocks.
  virtual double power_watts() const { return 0.0; }

  /// Capacitor area in multiples of C_u,min (paper Fig. 9); zero if none.
  virtual double area_unit_caps() const { return 0.0; }

  ParameterSet& params() { return params_; }
  const ParameterSet& params() const { return params_; }

 private:
  std::string name_;
  std::size_t num_inputs_;
  std::size_t num_outputs_;
  ParameterSet params_;
  std::uint64_t run_ = 0;
  bool in_fallback_ = false;  // default process_batch() is calling process()
};

using BlockPtr = std::unique_ptr<Block>;

/// Interface for blocks that accept an externally injected waveform
/// (sources). run_chain-style drivers and CompositeBlock use it to feed
/// data into a model without knowing the concrete source type.
class WaveformSettable {
 public:
  virtual ~WaveformSettable() = default;
  virtual void set_waveform(Waveform w) = 0;
};

/// Adapter for stateless single-input single-output transformations, used
/// by examples/tests to drop ad-hoc math into a model without subclassing.
class FunctionBlock final : public Block {
 public:
  using Fn = Waveform (*)(const Waveform&);
  FunctionBlock(std::string name, Fn fn);
  std::vector<Waveform> process(const std::vector<Waveform>& inputs) override;

 private:
  Fn fn_;
};

}  // namespace efficsense::sim
