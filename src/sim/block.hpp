#pragma once
// The block abstraction: the C++ equivalent of a Simulink library block.
// A block transforms input waveforms into output waveforms (functional
// model) and can report analytic power and capacitor-area estimates (power
// model) — the paper's key idea of keeping both models attached to the same
// component.

#include <cstddef>
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
  /// as one-lane banks, runs process_batch() at K=1 over a scratch arena
  /// and returns lane 0 — so a block that only writes its lane kernel is
  /// still callable one waveform at a time.
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
  ///    bit-exact for every block whose state is shared across lanes
  ///    (deterministic blocks, and noise blocks when all lanes share one
  ///    noise stream), and advances any per-run RNG state exactly once —
  ///    just like one scalar instance would.
  ///  - some input per-lane -> per-lane fallback: process() runs once per
  ///    lane. This keeps process()-only blocks running under the batched
  ///    path, but re-runs per-run RNG streams K times; blocks that hold
  ///    per-run noise state or per-lane fabrication state MUST override
  ///    this method instead to stay bit-identical per lane.
  virtual void process_batch(std::size_t lanes,
                             const std::vector<const LaneBank*>& inputs,
                             std::vector<LaneBank>& outputs,
                             WaveformArena& arena);

  /// Clear internal state (filters, noise streams resume their sequence).
  virtual void reset() {}

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
