// The block-diagram engine: parameters, waveforms, graph wiring, scheduling,
// probes, reports and error handling.

#include <gtest/gtest.h>

#include "sim/block.hpp"
#include "sim/model.hpp"
#include "sim/params.hpp"
#include "sim/report.hpp"
#include "sim/waveform.hpp"
#include "util/error.hpp"

using namespace efficsense;
using sim::Waveform;

namespace {

/// Multiplies by a constant; reports fixed power/area for report tests.
class TestGain final : public sim::Block {
 public:
  TestGain(std::string name, double g, double watts = 0.0, double caps = 0.0)
      : Block(std::move(name), 1, 1), g_(g), watts_(watts), caps_(caps) {}
  std::vector<Waveform> process(const std::vector<Waveform>& in) override {
    Waveform out = in.at(0);
    for (double& v : out.samples) v *= g_;
    ++calls_;
    return {out};
  }
  void reset() override { calls_ = 0; }
  double power_watts() const override { return watts_; }
  double area_unit_caps() const override { return caps_; }
  int calls() const { return calls_; }

 private:
  double g_;
  double watts_, caps_;
  int calls_ = 0;
};

class TestSource final : public sim::Block {
 public:
  TestSource(std::string name, Waveform w)
      : Block(std::move(name), 0, 1), w_(std::move(w)) {}
  std::vector<Waveform> process(const std::vector<Waveform>&) override {
    return {w_};
  }

 private:
  Waveform w_;
};

/// Two outputs: the input and its negation.
class TestSplit final : public sim::Block {
 public:
  explicit TestSplit(std::string name) : Block(std::move(name), 1, 2) {}
  std::vector<Waveform> process(const std::vector<Waveform>& in) override {
    Waveform neg = in.at(0);
    for (double& v : neg.samples) v = -v;
    return {in.at(0), neg};
  }
};

/// Sums two inputs.
class TestSum final : public sim::Block {
 public:
  explicit TestSum(std::string name) : Block(std::move(name), 2, 1) {}
  std::vector<Waveform> process(const std::vector<Waveform>& in) override {
    Waveform out = in.at(0);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += in.at(1)[i];
    return {out};
  }
};

Waveform ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return Waveform(100.0, std::move(v));
}

}  // namespace

TEST(Params, TypedAccess) {
  sim::ParameterSet p;
  p.set("gain", 2.5);
  p.set("bits", 8);
  p.set("enabled", true);
  p.set("mode", "fast");
  EXPECT_DOUBLE_EQ(p.get_double("gain"), 2.5);
  EXPECT_EQ(p.get_int("bits"), 8);
  EXPECT_TRUE(p.get_bool("enabled"));
  EXPECT_EQ(p.get_string("mode"), "fast");
  EXPECT_DOUBLE_EQ(p.get_double("bits"), 8.0);  // int promotes to double
}

TEST(Params, MissingAndWrongTypeThrow) {
  sim::ParameterSet p;
  p.set("mode", "fast");
  EXPECT_THROW(p.get_double("nope"), Error);
  EXPECT_THROW(p.get_double("mode"), Error);
  EXPECT_THROW(p.get_int("mode"), Error);
  EXPECT_THROW(p.get_bool("mode"), Error);
}

TEST(Params, Fallbacks) {
  sim::ParameterSet p;
  EXPECT_DOUBLE_EQ(p.get_double("x", 3.0), 3.0);
  EXPECT_EQ(p.get_int("x", 7), 7);
  EXPECT_TRUE(p.get_bool("x", true));
  EXPECT_EQ(p.get_string("x", "def"), "def");
}

TEST(Params, NamesAndToString) {
  sim::ParameterSet p;
  p.set("b", 1.0);
  p.set("a", 2);
  const auto names = p.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // sorted (map order)
  EXPECT_NE(p.to_string().find("a=2"), std::string::npos);
}

TEST(Waveform, DurationAndTimeAxis) {
  const auto w = ramp(200);
  EXPECT_DOUBLE_EQ(w.duration_s(), 2.0);
  const auto t = sim::time_axis(w);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[100], 1.0);
  EXPECT_THROW(Waveform(0.0, {1.0}), Error);
}

TEST(Model, LinearChainComputes) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(10)));
  const auto g1 = m.add(std::make_unique<TestGain>("g1", 2.0));
  const auto g2 = m.add(std::make_unique<TestGain>("g2", 3.0));
  m.chain({src, g1, g2});
  const auto out = m.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][4], 24.0);  // 4 * 2 * 3
}

TEST(Model, FanOutAndMultiInput) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(8)));
  const auto split = m.add(std::make_unique<TestSplit>("split"));
  const auto sum = m.add(std::make_unique<TestSum>("sum"));
  m.connect(src, 0, split, 0);
  m.connect(split, 0, sum, 0);
  m.connect(split, 1, sum, 1);
  const auto out = m.run();
  ASSERT_EQ(out.size(), 1u);
  for (double v : out[0].samples) EXPECT_DOUBLE_EQ(v, 0.0);  // x + (-x)
}

TEST(Model, MultipleUnconnectedOutputsAreModelOutputs) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(4)));
  const auto split = m.add(std::make_unique<TestSplit>("split"));
  m.connect(src, 0, split, 0);
  const auto out = m.run();
  EXPECT_EQ(out.size(), 2u);  // both split outputs are free
}

TEST(Model, ProbeObservesInnerSignals) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(5)));
  const auto g1 = m.add(std::make_unique<TestGain>("g1", 2.0));
  const auto g2 = m.add(std::make_unique<TestGain>("g2", 5.0));
  m.chain({src, g1, g2});
  m.run();
  EXPECT_DOUBLE_EQ(m.probe("g1")[3], 6.0);
  EXPECT_DOUBLE_EQ(m.probe("src")[3], 3.0);
  EXPECT_THROW(m.probe("nope"), Error);
}

TEST(Model, ProbeBeforeRunThrows) {
  sim::Model m;
  m.add(std::make_unique<TestSource>("src", ramp(5)));
  EXPECT_THROW(m.probe("src"), Error);
}

TEST(Model, UndrivenInputThrows) {
  sim::Model m;
  m.add(std::make_unique<TestGain>("lonely", 1.0));
  EXPECT_THROW(m.run(), Error);
}

TEST(Model, DoubleDrivingInputThrows) {
  sim::Model m;
  const auto s1 = m.add(std::make_unique<TestSource>("s1", ramp(3)));
  const auto s2 = m.add(std::make_unique<TestSource>("s2", ramp(3)));
  const auto g = m.add(std::make_unique<TestGain>("g", 1.0));
  m.connect(s1, 0, g, 0);
  EXPECT_THROW(m.connect(s2, 0, g, 0), Error);
}

TEST(Model, DuplicateNamesRejected) {
  sim::Model m;
  m.add(std::make_unique<TestGain>("same", 1.0));
  EXPECT_THROW(m.add(std::make_unique<TestGain>("same", 2.0)), Error);
}

TEST(Model, BadPortsRejected) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(3)));
  const auto g = m.add(std::make_unique<TestGain>("g", 1.0));
  EXPECT_THROW(m.connect(src, 1, g, 0), Error);
  EXPECT_THROW(m.connect(src, 0, g, 5), Error);
}

TEST(Model, TopologicalOrderIndependentOfInsertion) {
  // Insert downstream block first; scheduling must still work.
  sim::Model m;
  const auto g = m.add(std::make_unique<TestGain>("g", 10.0));
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(3)));
  m.connect(src, 0, g, 0);
  const auto out = m.run();
  EXPECT_DOUBLE_EQ(out[0][2], 20.0);
}

TEST(Model, LookupByName) {
  sim::Model m;
  m.add(std::make_unique<TestGain>("alpha", 1.0));
  EXPECT_TRUE(m.has_block("alpha"));
  EXPECT_FALSE(m.has_block("beta"));
  EXPECT_EQ(m.block("alpha").name(), "alpha");
  EXPECT_THROW(m.id_of("beta"), Error);
}

TEST(Model, ResetPropagatesToBlocks) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(3)));
  auto gain = std::make_unique<TestGain>("g", 1.0);
  TestGain* raw = gain.get();
  const auto g = m.add(std::move(gain));
  m.connect(src, 0, g, 0);
  m.run();
  m.run();
  EXPECT_EQ(raw->calls(), 2);
  m.reset();
  EXPECT_EQ(raw->calls(), 0);
}

TEST(Model, EmplaceReturnsTypedReference) {
  sim::Model m;
  auto& src = m.emplace<TestSource>("src", ramp(3));
  auto& g = m.emplace<TestGain>("g", 4.0);
  m.connect(m.id_of(src.name()), 0, m.id_of(g.name()), 0);
  const auto out = m.run();
  EXPECT_DOUBLE_EQ(out[0][1], 4.0);
}

TEST(Model, PowerAndAreaReports) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(3)));
  const auto a = m.add(std::make_unique<TestGain>("a", 1.0, 2e-6, 100.0));
  const auto b = m.add(std::make_unique<TestGain>("b", 1.0, 3e-6, 50.0));
  m.chain({src, a, b});
  const auto power = m.power_report();
  EXPECT_DOUBLE_EQ(power.total_watts(), 5e-6);
  EXPECT_DOUBLE_EQ(power.watts_of("a"), 2e-6);
  EXPECT_DOUBLE_EQ(power.watts_of("missing"), 0.0);
  const auto area = m.area_report();
  EXPECT_DOUBLE_EQ(area.total_unit_caps(), 150.0);
  EXPECT_DOUBLE_EQ(area.caps_of("b"), 50.0);
}

TEST(Report, MergeAndToString) {
  sim::PowerReport r1, r2;
  r1.add("lna", 1e-6);
  r2.add("lna", 2e-6);
  r2.add("tx", 3e-6);
  r1.merge(r2);
  EXPECT_DOUBLE_EQ(r1.watts_of("lna"), 3e-6);
  EXPECT_DOUBLE_EQ(r1.total_watts(), 6e-6);
  EXPECT_NE(r1.to_string().find("lna"), std::string::npos);
}

TEST(Report, EmptyReports) {
  const sim::PowerReport empty;
  EXPECT_DOUBLE_EQ(empty.total_watts(), 0.0);
  EXPECT_DOUBLE_EQ(empty.watts_of("anything"), 0.0);
  EXPECT_TRUE(empty.entries().empty());
  // to_string must not divide by the zero total.
  EXPECT_NE(empty.to_string().find("total"), std::string::npos);

  const sim::AreaReport area;
  EXPECT_DOUBLE_EQ(area.total_unit_caps(), 0.0);
  EXPECT_DOUBLE_EQ(area.caps_of("adc"), 0.0);

  sim::PowerReport target;
  target.add("lna", 1e-6);
  target.merge(empty);  // merging an empty report is a no-op
  EXPECT_DOUBLE_EQ(target.total_watts(), 1e-6);
}

TEST(Report, DuplicateBlockNamesAccumulate) {
  sim::PowerReport r;
  r.add("adc", 1e-6);
  r.add("adc", 2e-6);
  r.add("adc", 0.5e-6);
  // Same-named adds collapse into one entry — merge() relies on this.
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(r.watts_of("adc"), 3.5e-6);
  EXPECT_DOUBLE_EQ(r.total_watts(), 3.5e-6);

  sim::AreaReport a;
  a.add("cs_enc", 100.0);
  a.add("cs_enc", 50.0);
  a.add("adc", 25.0);
  ASSERT_EQ(a.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(a.caps_of("cs_enc"), 150.0);
  EXPECT_DOUBLE_EQ(a.total_unit_caps(), 175.0);
}

TEST(Report, MergeIsCommutativeOnTotals) {
  sim::PowerReport a, b;
  a.add("lna", 1e-6);
  a.add("adc", 2e-6);
  b.add("adc", 3e-6);
  b.add("tx", 4e-6);
  sim::PowerReport ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_DOUBLE_EQ(ab.total_watts(), ba.total_watts());
  EXPECT_DOUBLE_EQ(ab.watts_of("adc"), 5e-6);
  EXPECT_DOUBLE_EQ(ba.watts_of("adc"), 5e-6);
  // Percentages in the summary come from the merged total.
  EXPECT_NE(ab.to_string().find("%"), std::string::npos);
}

TEST(Model, RunStatsAccumulateAcrossRuns) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(8)));
  const auto g = m.add(std::make_unique<TestGain>("g", 2.0));
  m.connect(src, 0, g, 0);
  m.run();
  m.run();
  const auto& stats = m.run_stats();
  EXPECT_EQ(stats.runs, 2u);
  ASSERT_EQ(stats.blocks.size(), 2u);
  EXPECT_GE(stats.total_seconds, 0.0);
  for (const auto& b : stats.blocks) {
    EXPECT_EQ(b.runs, 2u);
    EXPECT_EQ(b.samples_out, 16u);  // 8 samples per run, 2 runs
    EXPECT_GE(b.seconds, 0.0);
  }
  const auto text = stats.to_string();
  EXPECT_NE(text.find("src"), std::string::npos);
  EXPECT_NE(text.find("g"), std::string::npos);

  m.reset_run_stats();
  EXPECT_EQ(m.run_stats().runs, 0u);
  EXPECT_TRUE(m.run_stats().blocks.empty());
}

TEST(FunctionBlock, WrapsFreeFunction) {
  sim::Model m;
  m.add(std::make_unique<TestSource>("src", ramp(4)));
  m.add(std::make_unique<sim::FunctionBlock>("sq", [](const Waveform& w) {
    Waveform out = w;
    for (double& v : out.samples) v *= v;
    return out;
  }));
  m.connect("src", "sq");
  const auto out = m.run();
  EXPECT_DOUBLE_EQ(out[0][3], 9.0);
}

#include "blocks/sources.hpp"
#include "sim/composite.hpp"

TEST(Composite, WrapsInnerChain) {
  auto inner = std::make_unique<sim::Model>();
  const auto src = inner->add(std::make_unique<efficsense::blocks::WaveformSource>("in"));
  const auto g = inner->add(std::make_unique<TestGain>("g", 3.0, 2e-6, 10.0));
  inner->connect(src, 0, g, 0);

  sim::Model outer;
  const auto osrc = outer.add(std::make_unique<TestSource>("src", ramp(5)));
  const auto comp = outer.add(
      std::make_unique<sim::CompositeBlock>("frontend", std::move(inner), "in"));
  const auto post = outer.add(std::make_unique<TestGain>("post", 2.0));
  outer.chain({osrc, comp, post});

  const auto out = outer.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][4], 24.0);  // 4 * 3 (inner) * 2 (outer)
  // Power and area aggregate through the hierarchy.
  EXPECT_DOUBLE_EQ(outer.power_report().watts_of("frontend"), 2e-6);
  EXPECT_DOUBLE_EQ(outer.area_report().caps_of("frontend"), 10.0);
}

TEST(Composite, RunsRepeatedlyWithFreshInputs) {
  auto inner = std::make_unique<sim::Model>();
  const auto src = inner->add(std::make_unique<efficsense::blocks::WaveformSource>("in"));
  const auto g = inner->add(std::make_unique<TestGain>("g", 10.0));
  inner->connect(src, 0, g, 0);
  sim::CompositeBlock comp("c", std::move(inner), "in");

  const auto y1 = comp.process({ramp(3)})[0];
  EXPECT_DOUBLE_EQ(y1[2], 20.0);
  sim::Waveform other(100.0, {5.0});
  const auto y2 = comp.process({other})[0];
  EXPECT_DOUBLE_EQ(y2[0], 50.0);
}

TEST(Composite, ValidatesEntryBlock) {
  {
    auto inner = std::make_unique<sim::Model>();
    inner->add(std::make_unique<TestGain>("notasource", 1.0));
    EXPECT_THROW(
        sim::CompositeBlock("c", std::move(inner), "notasource"), Error);
  }
  {
    auto inner = std::make_unique<sim::Model>();
    inner->add(std::make_unique<TestSource>("src", ramp(3)));
    // TestSource is 0-in/1-out but does not implement WaveformSettable.
    sim::CompositeBlock comp("c", std::move(inner), "src");
    EXPECT_THROW(comp.process({ramp(3)}), Error);
  }
}

TEST(ModelDot, RendersNodesAndEdges) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(4)));
  const auto g = m.add(std::make_unique<TestGain>("amp", 2.0, 1e-6));
  m.connect(src, 0, g, 0);
  const auto dot = m.to_dot();
  EXPECT_NE(dot.find("digraph model"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("amp"), std::string::npos);
  EXPECT_NE(dot.find("1 uW"), std::string::npos);  // power annotation
  EXPECT_NE(dot.find("b0 -> b1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LaneBank + batched execution (the SoA K-lane Monte-Carlo engine).

#include "sim/arena.hpp"
#include "sim/lane_bank.hpp"

namespace {

/// Adds k to every sample of lane k — deliberately breaks uniformity so the
/// blocks downstream exercise the default per-lane fallback.
class LaneOffset final : public sim::Block {
 public:
  explicit LaneOffset(std::string name) : Block(std::move(name), 1, 1) {}
  std::vector<Waveform> process(const std::vector<Waveform>& in) override {
    return {in.at(0)};
  }
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override {
    const sim::LaneBank& x = *inputs.at(0);
    auto out = sim::LaneBank::acquire(arena, x.fs(), lanes, x.samples(),
                                      /*uniform=*/false);
    for (std::size_t k = 0; k < lanes; ++k) {
      const double* xr = x.lane(k);
      double* o = out.lane(k);
      for (std::size_t i = 0; i < x.samples(); ++i) {
        o[i] = xr[i] + static_cast<double>(k);
      }
    }
    outputs.push_back(std::move(out));
  }
};

}  // namespace

TEST(LaneBank, LayoutUniformityAndAdopt) {
  const auto b = sim::LaneBank::adopt(100.0, 2, 3, /*uniform=*/false,
                                      {0, 1, 2, 10, 11, 12});
  EXPECT_EQ(b.lanes(), 2u);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_FALSE(b.uniform());
  EXPECT_DOUBLE_EQ(b.lane(1)[0], 10.0);
  const auto w = b.lane_waveform(1);
  EXPECT_DOUBLE_EQ(w.fs, 100.0);
  EXPECT_EQ(w.samples, (std::vector<double>{10, 11, 12}));

  const auto u = sim::LaneBank::broadcast(4, ramp(3));
  EXPECT_TRUE(u.uniform());
  EXPECT_EQ(u.lanes(), 4u);
  EXPECT_EQ(u.rows(), 1u);           // one stored row...
  EXPECT_EQ(u.lane(3), u.lane(0));   // ...aliased by every lane

  EXPECT_THROW(sim::LaneBank::adopt(100.0, 2, 3, false, {1.0}), Error);
}

TEST(Model, RunBatchBroadcastsUniformChains) {
  // A fully deterministic chain stays uniform end to end: the default
  // process_batch computes each block ONCE regardless of the lane count.
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(6)));
  const auto id = m.add(std::make_unique<TestGain>("g", 2.0));
  m.chain({src, id});
  auto* gain = dynamic_cast<TestGain*>(&m.block("g"));
  ASSERT_NE(gain, nullptr);

  const auto out = m.run_batch(8);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]->uniform());
  EXPECT_EQ(out[0]->lanes(), 8u);
  EXPECT_EQ(gain->calls(), 1);  // not 8
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(out[0]->lane(k)[3], 6.0);  // 3 * 2
  }
}

TEST(Model, RunBatchPerLaneFallbackAfterDivergence) {
  // Once a block emits per-lane data, downstream unconverted blocks fall
  // back to one scalar process() per lane and stay correct.
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(4)));
  const auto off = m.add(std::make_unique<LaneOffset>("off"));
  const auto g = m.add(std::make_unique<TestGain>("g", 3.0));
  m.chain({src, off, g});
  auto* gain = dynamic_cast<TestGain*>(&m.block("g"));
  ASSERT_NE(gain, nullptr);

  const auto out = m.run_batch(4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0]->uniform());
  EXPECT_EQ(gain->calls(), 4);  // one scalar call per lane
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(out[0]->lane(k)[i],
                       (static_cast<double>(i) + static_cast<double>(k)) * 3.0);
    }
  }

  // probe_batch observes inner banks, like probe() does for run().
  const auto& probed = m.probe_batch("off", 0);
  EXPECT_DOUBLE_EQ(probed.lane(2)[1], 3.0);  // 1 + lane 2

  // run_batch(1) degenerates to the scalar topology result.
  const auto single = m.run_batch(1);
  EXPECT_DOUBLE_EQ(single[0]->lane(0)[2], 6.0);
}

TEST(Model, RunBatchMatchesScalarRunForLaneInvariantChains) {
  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(16)));
  const auto split = m.add(std::make_unique<TestSplit>("split"));
  const auto sum = m.add(std::make_unique<TestSum>("sum"));
  m.connect(src, 0, split, 0);
  m.connect(split, 0, sum, 0);
  m.connect(split, 1, sum, 1);

  const auto scalar = m.run();
  const auto batch = m.run_batch(3);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0]->samples(), scalar[0].size());
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < scalar[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(batch[0]->lane(k)[i], scalar[0][i]);
    }
  }
}

// ---------------------------------------------------------------------------
// One executor: run() is the K=1 case of run_batch(), and a block overrides
// exactly one of process() / process_batch().

#include "blocks/basic.hpp"

namespace {

/// Doubles its input; overrides only the lane kernel.
class LaneDoubler final : public sim::Block {
 public:
  explicit LaneDoubler(std::string name) : Block(std::move(name), 1, 1) {}
  void process_batch(std::size_t lanes,
                     const std::vector<const sim::LaneBank*>& inputs,
                     std::vector<sim::LaneBank>& outputs,
                     sim::WaveformArena& arena) override {
    const sim::LaneBank& x = *inputs.at(0);
    auto out = sim::LaneBank::acquire(arena, x.fs(), lanes, x.samples(),
                                      x.uniform());
    for (std::size_t k = 0; k < out.rows(); ++k) {
      for (std::size_t i = 0; i < x.samples(); ++i) {
        out.lane(k)[i] = 2.0 * x.lane(k)[i];
      }
    }
    ++calls_;
    outputs.push_back(std::move(out));
  }
  int calls() const { return calls_; }

 private:
  int calls_ = 0;
};

/// Overrides neither kernel: an authoring error.
class NoKernel final : public sim::Block {
 public:
  explicit NoKernel(std::string name) : Block(std::move(name), 1, 1) {}
};

std::unique_ptr<sim::Model> noise_model() {
  auto m = std::make_unique<sim::Model>();
  const auto src = m->add(std::make_unique<TestSource>("src", ramp(64)));
  const auto noise = m->add(
      std::make_unique<efficsense::blocks::NoiseAdderBlock>("noise", 0.5, 7));
  m->connect(src, 0, noise, 0);
  return m;
}

std::vector<double> lane_samples(const sim::LaneBank& bank, std::size_t k) {
  return {bank.lane(k), bank.lane(k) + bank.samples()};
}

}  // namespace

TEST(Block, LaneKernelOnlyBlockRunsThroughProcessAndModelRun) {
  LaneDoubler direct("d");
  const auto out = direct.process({ramp(5)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].fs, 100.0);
  EXPECT_EQ(out[0].samples, (std::vector<double>{0, 2, 4, 6, 8}));

  sim::Model m;
  const auto src = m.add(std::make_unique<TestSource>("src", ramp(4)));
  auto& doubler = m.emplace<LaneDoubler>("d");
  m.connect(src, 0, m.id_of("d"), 0);
  const auto run = m.run();
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].samples, (std::vector<double>{0, 2, 4, 6}));
  EXPECT_EQ(doubler.calls(), 1);
}

TEST(Block, OverridingNeitherKernelThrows) {
  NoKernel none("none");
  EXPECT_THROW(none.process({ramp(3)}), Error);
}

TEST(Model, ProbeReadsTheLastRunOfEitherKind) {
  {
    // run() then run_batch(2): probe() is lane 0 of the batch, whose noise
    // stream has advanced past the first run's.
    auto m = noise_model();
    m->run();
    const auto first = m->probe("noise").samples;
    m->run_batch(2);
    const auto batch_lane0 = lane_samples(m->probe_batch("noise"), 0);
    EXPECT_EQ(m->probe("noise").samples, batch_lane0);
    EXPECT_NE(m->probe("noise").samples, first);
  }
  {
    // run_batch(2) then run(): probe_batch() is the one-lane run.
    auto m = noise_model();
    m->run_batch(2);
    const auto out = m->run();
    const auto& bank = m->probe_batch("noise");
    EXPECT_EQ(bank.lanes(), 1u);
    EXPECT_EQ(lane_samples(bank, 0), out.at(0).samples);
  }
}

// ---------------------------------------------------------------------------
// Run-index contract: every per-run-noise block seeds run r's stream from
// derive_seed(seed, r), so a model seeked to run r reproduces the r-th run
// of a sequential model bit-for-bit. This is what lets a pooled evaluator
// hand segment i to any idle chain seeked to i.

#include <cmath>
#include <functional>

#include "blocks/cs_encoder.hpp"
#include "blocks/cs_encoder_active.hpp"
#include "blocks/lna.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sar_adc.hpp"
#include "blocks/transmitter.hpp"
#include "cs/srbm.hpp"
#include "power/tech.hpp"
#include "util/rng.hpp"

namespace {

struct NoiseCase {
  const char* name;
  double amplitude;  ///< input tone amplitude the block sees unclipped
  /// Builds the block named "dut"; `lanes` > 1 installs per-lane noise
  /// seeds where the block supports them.
  std::function<sim::BlockPtr(std::size_t lanes)> make;
};

std::vector<std::uint64_t> lane_seeds(std::size_t lanes) {
  std::vector<std::uint64_t> seeds(lanes);
  for (std::size_t k = 0; k < lanes; ++k) seeds[k] = derive_seed(0x5EED, k);
  return seeds;
}

template <typename B>
sim::BlockPtr with_lane_seeds(std::unique_ptr<B> block, std::size_t lanes) {
  if (lanes > 1) block->set_lane_noise_seeds(lane_seeds(lanes));
  return block;
}

power::DesignParams cs_design(power::CsStyle style) {
  power::DesignParams d;
  d.cs_m = 75;
  d.cs_style = style;
  return d;
}

std::vector<NoiseCase> noise_cases() {
  static const power::TechnologyParams tech;
  static const power::DesignParams base;
  static const power::DesignParams passive =
      cs_design(power::CsStyle::PassiveCharge);
  static const power::DesignParams active =
      cs_design(power::CsStyle::ActiveIntegrator);
  const auto phi = [](const power::DesignParams& d) {
    return cs::SparseBinaryMatrix::generate(
        static_cast<std::size_t>(d.cs_m), static_cast<std::size_t>(d.cs_n_phi),
        static_cast<std::size_t>(d.cs_sparsity), 9);
  };
  return {
      {"lna", 200e-6,
       [](std::size_t k) {
         return with_lane_seeds(
             std::make_unique<blocks::LnaBlock>("dut", tech, base, 1), k);
       }},
      {"sample_hold", 0.5,
       [](std::size_t k) {
         return with_lane_seeds(
             std::make_unique<blocks::SampleHoldBlock>(
                 "dut", tech, base, 2, 0.01 / base.f_sample_hz()),
             k);
       }},
      {"sar_adc", 0.5,
       [](std::size_t k) {
         return with_lane_seeds(
             std::make_unique<blocks::SarAdcBlock>("dut", tech, base, 3, 4),
             k);
       }},
      {"cs_passive", 0.5,
       [phi](std::size_t k) {
         return with_lane_seeds(std::make_unique<blocks::CsEncoderBlock>(
                                    "dut", tech, passive, phi(passive), 5, 6),
                                k);
       }},
      {"cs_active", 0.5,
       [phi](std::size_t) -> sim::BlockPtr {
         return std::make_unique<blocks::ActiveCsEncoderBlock>(
             "dut", tech, active, phi(active), 7, 8);
       }},
      {"tx_ber", 0.5,
       [](std::size_t k) {
         return with_lane_seeds(
             std::make_unique<blocks::TransmitterBlock>("dut", tech, base, 9,
                                                        0.01),
             k);
       }},
      {"noise_adder", 0.5,
       [](std::size_t k) {
         return with_lane_seeds(
             std::make_unique<blocks::NoiseAdderBlock>("dut", 1e-3, 10), k);
       }},
  };
}

/// 2 s of a 7 Hz tone at 4096 Hz: fast enough for the LNA bandwidth, long
/// enough for two CS frames.
Waveform noise_input(double amplitude) {
  std::vector<double> v(8192);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = amplitude * std::sin(2.0 * 3.141592653589793 * 7.0 *
                                static_cast<double>(i) / 4096.0);
  }
  return Waveform(4096.0, std::move(v));
}

/// source -> dut, the source holding the case's input.
std::unique_ptr<sim::Model> noise_model(const NoiseCase& c, std::size_t lanes) {
  auto model = std::make_unique<sim::Model>();
  auto& src = model->emplace<blocks::WaveformSource>("src");
  src.set_waveform(noise_input(c.amplitude));
  model->connect(model->id_of("src"), model->add(c.make(lanes)));
  return model;
}

/// One run at `lanes` lanes (run() at K=1), flattened: the uniform flag
/// followed by every stored sample.
std::vector<double> run_bank(sim::Model& model, std::size_t lanes) {
  if (lanes == 1) return model.run().front().samples;
  const sim::LaneBank& bank = *model.run_batch(lanes).front();
  std::vector<double> out{bank.uniform() ? 1.0 : 0.0};
  out.insert(out.end(), bank.data().begin(), bank.data().end());
  return out;
}

constexpr std::size_t kRuns = 4;

}  // namespace

TEST(RunIndex, SeekReproducesSequentialRunsBitwise) {
  for (const NoiseCase& c : noise_cases()) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
      auto sequential = noise_model(c, lanes);
      std::vector<std::vector<double>> runs;
      for (std::size_t r = 0; r < kRuns; ++r) {
        EXPECT_EQ(sequential->run_index(), r) << c.name;
        runs.push_back(run_bank(*sequential, lanes));
      }
      // The noise really moves run to run, so the checks below bite.
      EXPECT_NE(runs[0], runs[1]) << c.name << " K=" << lanes;
      for (std::size_t r = 0; r < kRuns; ++r) {
        auto fresh = noise_model(c, lanes);
        fresh->seek_run(r);
        EXPECT_EQ(run_bank(*fresh, lanes), runs[r])
            << c.name << " K=" << lanes << " run " << r;
      }
      // Seeking backwards on a used model works too (a reused chain).
      sequential->seek_run(1);
      EXPECT_EQ(run_bank(*sequential, lanes), runs[1]) << c.name;
      EXPECT_EQ(sequential->run_index(), 2u) << c.name;
    }
  }
}

TEST(RunIndex, ResetReturnsToRunZero) {
  for (const NoiseCase& c : noise_cases()) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
      auto model = noise_model(c, lanes);
      const auto first = run_bank(*model, lanes);
      for (std::size_t r = 1; r < kRuns; ++r) run_bank(*model, lanes);
      model->reset();
      EXPECT_EQ(model->run_index(), 0u);
      EXPECT_EQ(run_bank(*model, lanes), first) << c.name << " K=" << lanes;
    }
    // A block used on its own advances and rewinds the same way.
    auto block = c.make(1);
    const Waveform in = noise_input(c.amplitude);
    const auto a = block->process({in})[0].samples;
    EXPECT_EQ(block->run_index(), 1u) << c.name;
    EXPECT_NE(block->process({in})[0].samples, a) << c.name;
    block->reset();
    EXPECT_EQ(block->run_index(), 0u) << c.name;
    EXPECT_EQ(block->process({in})[0].samples, a) << c.name;
  }
}

TEST(RunIndex, CompositeForwardsTheSeek) {
  for (const NoiseCase& c : noise_cases()) {
    const auto make_outer = [&] {
      auto inner = std::make_unique<sim::Model>();
      const auto in = inner->add(std::make_unique<blocks::WaveformSource>("in"));
      inner->connect(in, inner->add(c.make(1)));
      auto outer = std::make_unique<sim::Model>();
      const auto src = outer->add(
          std::make_unique<TestSource>("src", noise_input(c.amplitude)));
      const auto comp = outer->add(std::make_unique<sim::CompositeBlock>(
          "frontend", std::move(inner), "in"));
      outer->connect(src, comp);
      return outer;
    };
    auto flat = noise_model(c, 1);
    auto sequential = make_outer();
    std::vector<std::vector<double>> runs;
    for (std::size_t r = 0; r < kRuns; ++r) {
      runs.push_back(run_bank(*sequential, 1));
      // The subsystem draws exactly what the flat block draws at run r.
      EXPECT_EQ(runs.back(), run_bank(*flat, 1)) << c.name << " run " << r;
    }
    EXPECT_NE(runs[0], runs[1]) << c.name;
    for (std::size_t r = 0; r < kRuns; ++r) {
      auto fresh = make_outer();
      fresh->seek_run(r);
      EXPECT_EQ(run_bank(*fresh, 1), runs[r]) << c.name << " run " << r;
    }
  }
}
