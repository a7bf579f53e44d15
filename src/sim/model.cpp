#include "sim/model.hpp"

#include <algorithm>
#include <chrono>
#include <queue>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace efficsense::sim {

Model::Model() = default;

BlockId Model::add(BlockPtr block) {
  EFF_REQUIRE(block != nullptr, "cannot add a null block");
  EFF_REQUIRE(by_name_.count(block->name()) == 0,
              "duplicate block name: " + block->name());
  const BlockId id = blocks_.size();
  by_name_[block->name()] = id;
  blocks_.push_back(std::move(block));
  plan_valid_ = false;
  return id;
}

Block& Model::block(BlockId id) {
  EFF_REQUIRE(id < blocks_.size(), "block id out of range");
  return *blocks_[id];
}

const Block& Model::block(BlockId id) const {
  EFF_REQUIRE(id < blocks_.size(), "block id out of range");
  return *blocks_[id];
}

BlockId Model::id_of(const std::string& name) const {
  auto it = by_name_.find(name);
  EFF_REQUIRE(it != by_name_.end(), "unknown block: " + name);
  return it->second;
}

bool Model::has_block(const std::string& name) const {
  return by_name_.count(name) != 0;
}

Block& Model::block(const std::string& name) { return block(id_of(name)); }
const Block& Model::block(const std::string& name) const {
  return block(id_of(name));
}

void Model::connect(BlockId src, std::size_t src_port, BlockId dst,
                    std::size_t dst_port) {
  EFF_REQUIRE(src < blocks_.size() && dst < blocks_.size(), "bad block id");
  EFF_REQUIRE(src_port < blocks_[src]->num_outputs(),
              "source port out of range on " + blocks_[src]->name());
  EFF_REQUIRE(dst_port < blocks_[dst]->num_inputs(),
              "destination port out of range on " + blocks_[dst]->name());
  const PortRef in{dst, dst_port};
  EFF_REQUIRE(input_driver_.count(in) == 0,
              "input already driven on " + blocks_[dst]->name());
  const PortRef out{src, src_port};
  input_driver_[in] = out;
  fanout_[out].push_back(in);
  plan_valid_ = false;
}

void Model::connect(const std::string& src, const std::string& dst) {
  connect(id_of(src), 0, id_of(dst), 0);
}

void Model::chain(const std::vector<BlockId>& ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    connect(ids[i - 1], 0, ids[i], 0);
  }
}

std::vector<BlockId> Model::topological_order() const {
  std::vector<std::size_t> indegree(blocks_.size(), 0);
  for (const auto& [in, out] : input_driver_) {
    (void)out;
    ++indegree[in.block];
  }
  // A block is ready once all its driven inputs' sources have run. We track
  // remaining *edges* per block; blocks with undriven inputs are an error,
  // detected below.
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    std::size_t driven = 0;
    for (std::size_t p = 0; p < blocks_[id]->num_inputs(); ++p) {
      if (input_driver_.count(PortRef{id, p})) ++driven;
    }
    EFF_REQUIRE(driven == blocks_[id]->num_inputs(),
                "undriven input port on block " + blocks_[id]->name());
  }

  std::queue<BlockId> ready;
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<BlockId> order;
  order.reserve(blocks_.size());
  while (!ready.empty()) {
    const BlockId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (std::size_t p = 0; p < blocks_[id]->num_outputs(); ++p) {
      auto it = fanout_.find(PortRef{id, p});
      if (it == fanout_.end()) continue;
      for (const PortRef& in : it->second) {
        if (--indegree[in.block] == 0) ready.push(in.block);
      }
    }
  }
  EFF_REQUIRE(order.size() == blocks_.size(), "model graph contains a cycle");
  return order;
}

void Model::ensure_plan() {
  if (plan_valid_) {
    obs::counter("sim/schedule_cache_hits").inc();
    return;
  }
  obs::counter("sim/schedule_cache_misses").inc();

  const auto order = topological_order();

  // Dense output-slot layout in (block id, port) order: stable under
  // add(), so probe() of earlier blocks survives a rebuild.
  slot_of_block_.resize(blocks_.size());
  num_slots_ = 0;
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    slot_of_block_[id] = num_slots_;
    num_slots_ += blocks_[id]->num_outputs();
  }

  plan_.clear();
  plan_.reserve(order.size());
  for (const BlockId id : order) {
    StepPlan step;
    step.id = id;
    const Block& b = *blocks_[id];
    step.input_slots.reserve(b.num_inputs());
    for (std::size_t p = 0; p < b.num_inputs(); ++p) {
      const PortRef src = input_driver_.at(PortRef{id, p});
      step.input_slots.push_back(slot_of_block_[src.block] + src.port);
    }
    step.first_output_slot = slot_of_block_[id];
    step.time_hist_name = "time/block/" + b.name();
    plan_.push_back(std::move(step));
  }

  model_output_slots_.clear();
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    for (std::size_t p = 0; p < blocks_[id]->num_outputs(); ++p) {
      if (fanout_.count(PortRef{id, p}) == 0) {
        model_output_slots_.push_back(slot_of_block_[id] + p);
      }
    }
  }

  if (bank_slots_.size() < num_slots_) bank_slots_.resize(num_slots_);

  plan_valid_ = true;
}

std::vector<Waveform> Model::run() {
  EFFICSENSE_SPAN("sim/run");
  execute(1);
  std::vector<Waveform> model_outputs;
  model_outputs.reserve(model_output_slots_.size());
  for (const std::size_t slot : model_output_slots_) {
    model_outputs.push_back(bank_slots_[slot].lane_waveform(0));
  }
  return model_outputs;
}

std::vector<const LaneBank*> Model::run_batch(std::size_t lanes) {
  EFF_REQUIRE(lanes >= 1, "run_batch needs at least one lane");
  EFFICSENSE_SPAN("sim/run_batch");
  execute(lanes);
  std::vector<const LaneBank*> model_outputs;
  model_outputs.reserve(model_output_slots_.size());
  for (const std::size_t slot : model_output_slots_) {
    model_outputs.push_back(&bank_slots_[slot]);
  }
  return model_outputs;
}

void Model::execute(std::size_t lanes) {
  using clock = std::chrono::steady_clock;
  const auto run_start = clock::now();
  ensure_plan();
  if (run_stats_.blocks.size() != blocks_.size()) {
    run_stats_.blocks.resize(blocks_.size());
    for (std::size_t id = 0; id < blocks_.size(); ++id) {
      run_stats_.blocks[id].name = blocks_[id]->name();
    }
  }

  // Recycle last run's bank storage; blocks re-acquire it below.
  for (auto& bank : bank_slots_) bank.release_to(arena_);
  bank_slots_written_ = 0;

  obs::counter("sim/batch_runs").inc();
  obs::counter("sim/lanes_active").inc(lanes);
  obs::Histogram& step_hist = obs::histogram("time/block_run");
  std::vector<const LaneBank*> inputs;
  std::vector<LaneBank> outputs;
  for (const StepPlan& step : plan_) {
    Block& b = *blocks_[step.id];
    inputs.clear();
    for (const std::size_t slot : step.input_slots) {
      inputs.push_back(&bank_slots_[slot]);
    }
    outputs.clear();
    b.seek_run(run_);
    obs::Span span("block/", b.name());
    const auto block_start = clock::now();
    b.process_batch(lanes, inputs, outputs, arena_);
    const double seconds =
        std::chrono::duration<double>(clock::now() - block_start).count();
    EFF_REQUIRE(outputs.size() == b.num_outputs(),
                "block " + b.name() + " produced wrong number of outputs");
    auto& bs = run_stats_.blocks[step.id];
    bs.runs += 1;
    bs.seconds += seconds;
    obs::histogram(step.time_hist_name).observe(seconds);
    step_hist.observe(seconds);
    for (std::size_t p = 0; p < outputs.size(); ++p) {
      EFF_REQUIRE(outputs[p].lanes() == lanes,
                  "block " + b.name() + " emitted a wrong lane count");
      bs.samples_out += outputs[p].lanes() * outputs[p].samples();
      bank_slots_[step.first_output_slot + p] = std::move(outputs[p]);
    }
  }
  bank_slots_written_ = num_slots_;
  ++run_;
  run_stats_.runs += 1;
  run_stats_.total_seconds +=
      std::chrono::duration<double>(clock::now() - run_start).count();
}

const LaneBank& Model::probe_batch(const std::string& block_name,
                                   std::size_t port) const {
  const BlockId id = id_of(block_name);
  EFF_REQUIRE(port < blocks_[id]->num_outputs(),
              "probe port out of range on " + block_name);
  const bool recorded = id < slot_of_block_.size() &&
                        slot_of_block_[id] + port < bank_slots_written_;
  EFF_REQUIRE(recorded,
              "no recorded output for " + block_name + " (run the model first)");
  return bank_slots_[slot_of_block_[id] + port];
}

Waveform Model::probe(const std::string& block_name, std::size_t port) const {
  return probe_batch(block_name, port).lane_waveform(0);
}

void Model::reset() {
  run_ = 0;
  for (auto& b : blocks_) b->reset();
  for (auto& bank : bank_slots_) bank.release_to(arena_);
  bank_slots_written_ = 0;
}

void Model::reset_run_stats() { run_stats_ = RunStats{}; }

std::string RunStats::to_string() const {
  std::ostringstream os;
  os << "runs: " << runs << ", total: " << format_number(total_seconds)
     << " s\n";
  for (const auto& b : blocks) {
    if (b.runs == 0) continue;
    os << "  " << b.name << ": " << format_number(b.seconds) << " s over "
       << b.runs << " runs, " << b.samples_out << " samples out";
    if (total_seconds > 0.0) {
      os << " (" << format_number(100.0 * b.seconds / total_seconds) << " %)";
    }
    os << "\n";
  }
  return os.str();
}

PowerReport Model::power_report() const {
  PowerReport report;
  for (const auto& b : blocks_) {
    const double w = b->power_watts();
    if (w != 0.0) report.add(b->name(), w);
  }
  return report;
}

std::string Model::to_dot() const {
  std::ostringstream os;
  os << "digraph model {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    const auto& b = *blocks_[id];
    os << "  b" << id << " [label=\"" << b.name();
    if (b.power_watts() != 0.0) {
      os << "\\n" << format_power(b.power_watts());
    }
    os << "\"];\n";
  }
  for (const auto& [out, targets] : fanout_) {
    for (const PortRef& in : targets) {
      os << "  b" << out.block << " -> b" << in.block;
      if (blocks_[out.block]->num_outputs() > 1 ||
          blocks_[in.block]->num_inputs() > 1) {
        os << " [label=\"" << out.port << "->" << in.port << "\"]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

AreaReport Model::area_report() const {
  AreaReport report;
  for (const auto& b : blocks_) {
    const double a = b->area_unit_caps();
    if (a != 0.0) report.add(b->name(), a);
  }
  return report;
}

}  // namespace efficsense::sim
