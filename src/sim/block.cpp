#include "sim/block.hpp"

#include <algorithm>

#include "sim/arena.hpp"
#include "util/error.hpp"

namespace efficsense::sim {

Block::Block(std::string name, std::size_t num_inputs, std::size_t num_outputs)
    : name_(std::move(name)), num_inputs_(num_inputs), num_outputs_(num_outputs) {
  EFF_REQUIRE(!name_.empty(), "block name must not be empty");
}

namespace {

/// Marks a block as running process() from inside its default
/// process_batch(), so a block that overrides neither fails loudly instead
/// of recursing.
class FallbackScope {
 public:
  explicit FallbackScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~FallbackScope() { flag_ = false; }
  FallbackScope(const FallbackScope&) = delete;
  FallbackScope& operator=(const FallbackScope&) = delete;

 private:
  bool& flag_;
};

}  // namespace

std::vector<Waveform> Block::process(const std::vector<Waveform>& inputs) {
  EFF_REQUIRE(!in_fallback_, "block " + name_ +
                                 " overrides neither process() nor "
                                 "process_batch()");
  EFF_REQUIRE(inputs.size() == num_inputs_,
              "wrong number of inputs for " + name_);
  std::vector<LaneBank> banks;
  banks.reserve(inputs.size());
  std::vector<const LaneBank*> in;
  in.reserve(inputs.size());
  for (const Waveform& w : inputs) {
    banks.push_back(LaneBank::broadcast(1, w));
    in.push_back(&banks.back());
  }
  WaveformArena scratch;
  std::vector<LaneBank> outs;
  process_batch(1, in, outs, scratch);
  ++run_;
  EFF_REQUIRE(outs.size() == num_outputs_,
              "block " + name_ + " produced wrong number of outputs");
  std::vector<Waveform> result;
  result.reserve(outs.size());
  for (LaneBank& bank : outs) {
    EFF_REQUIRE(bank.lanes() == 1,
                "block " + name_ + " emitted a wrong lane count");
    // One lane stores exactly one row: hand its storage over as-is.
    Waveform w;
    w.fs = bank.fs();
    w.samples = std::move(bank.data());
    result.push_back(std::move(w));
  }
  return result;
}

void Block::process_batch(std::size_t lanes,
                          const std::vector<const LaneBank*>& inputs,
                          std::vector<LaneBank>& outputs, WaveformArena& arena) {
  EFF_REQUIRE(lanes >= 1, "process_batch needs at least one lane");
  EFF_REQUIRE(inputs.size() == num_inputs_,
              "wrong number of input banks for " + name_);
  bool all_uniform = true;
  for (const LaneBank* in : inputs) {
    EFF_REQUIRE(in != nullptr && in->lanes() == lanes,
                "input bank lane count mismatch on " + name_);
    all_uniform = all_uniform && in->uniform();
  }

  FallbackScope scope(in_fallback_);
  std::vector<Waveform> scratch(inputs.size());
  if (all_uniform) {
    // Lane-invariant assumption: one scalar run, broadcast to every lane.
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      scratch[p] = inputs[p]->lane_waveform(0);
    }
    auto outs = process(scratch);
    EFF_REQUIRE(outs.size() == num_outputs_,
                "block " + name_ + " produced wrong number of outputs");
    // Copied into arena storage: adopting process()'s own buffer would
    // grow the pool by one buffer per run, since nothing re-acquires it.
    for (const Waveform& w : outs) {
      outputs.push_back(LaneBank::acquire(arena, w.fs, lanes, w.size(),
                                          /*uniform=*/true));
      std::copy(w.samples.begin(), w.samples.end(), outputs.back().lane(0));
    }
    return;
  }

  // Per-lane fallback. Only bit-exact for blocks without per-run noise or
  // per-lane fabrication state — stateful blocks override this method.
  const std::size_t base = outputs.size();
  for (std::size_t k = 0; k < lanes; ++k) {
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      scratch[p] = inputs[p]->lane_waveform(k);
    }
    auto outs = process(scratch);
    EFF_REQUIRE(outs.size() == num_outputs_,
                "block " + name_ + " produced wrong number of outputs");
    for (std::size_t p = 0; p < outs.size(); ++p) {
      if (k == 0) {
        outputs.push_back(LaneBank::acquire(arena, outs[p].fs, lanes,
                                            outs[p].size(),
                                            /*uniform=*/false));
      }
      EFF_REQUIRE(outs[p].size() == outputs[base + p].samples(),
                  "block " + name_ + " emitted lane-dependent lengths");
      std::copy(outs[p].samples.begin(), outs[p].samples.end(),
                outputs[base + p].lane(k));
    }
  }
}

FunctionBlock::FunctionBlock(std::string name, Fn fn)
    : Block(std::move(name), 1, 1), fn_(fn) {
  EFF_REQUIRE(fn_ != nullptr, "FunctionBlock requires a function");
}

std::vector<Waveform> FunctionBlock::process(const std::vector<Waveform>& inputs) {
  EFF_REQUIRE(inputs.size() == 1, "FunctionBlock expects one input");
  return {fn_(inputs[0])};
}

}  // namespace efficsense::sim
