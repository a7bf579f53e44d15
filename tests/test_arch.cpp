// The architecture layer: registry contents and lookup, the unknown-style
// hard error that replaced chain.cpp's silent passive fall-through, and the
// bitwise-equivalence guarantees — seed-pinned FNV-1a golden checksums
// proving the registry path produces the identical waveforms, EvalMetrics
// and journal RESULT_DIGEST as the legacy chain builders for all four
// migrated chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <unistd.h>
#include <vector>

#include "arch/architecture.hpp"
#include "blocks/sources.hpp"
#include "core/evaluator.hpp"
#include "core/sweep.hpp"
#include "eeg/dataset.hpp"
#include "run/durable.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"

using namespace efficsense;
using namespace efficsense::arch;
namespace fs = std::filesystem;

namespace {

/// FNV-1a over the raw bit patterns of each double, LSB first — any change
/// to any bit of any sample changes the hash (same helper as test_hotpath).
std::uint64_t fnv1a_doubles(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

power::DesignParams styled_design(int cs_m, power::CsStyle style) {
  power::DesignParams d;
  d.cs_m = cs_m;
  d.cs_style = style;
  return d;
}

/// The four legacy (design, builder, id) triples.
struct LegacyChain {
  const char* id;
  power::DesignParams design;
  std::unique_ptr<sim::Model> (*build)(const power::TechnologyParams&,
                                       const power::DesignParams&,
                                       const ChainSeeds&);
};

std::vector<LegacyChain> legacy_chains() {
  std::vector<LegacyChain> out;
  out.push_back({"baseline", styled_design(0, power::CsStyle::PassiveCharge),
                 &build_baseline_chain});
  out.push_back({"cs_passive", styled_design(75, power::CsStyle::PassiveCharge),
                 +[](const power::TechnologyParams& t,
                     const power::DesignParams& d, const ChainSeeds& s) {
                   return build_cs_chain(t, d, s, blocks::CsEncoderOptions{});
                 }});
  out.push_back({"cs_active",
                 styled_design(75, power::CsStyle::ActiveIntegrator),
                 &build_active_cs_chain});
  out.push_back({"cs_digital", styled_design(75, power::CsStyle::DigitalMac),
                 &build_digital_cs_chain});
  return out;
}

/// A deterministic EEG segment all waveform-equivalence tests share.
const sim::Waveform& test_segment() {
  static const sim::Waveform w = [] {
    const eeg::Generator gen{eeg::GeneratorConfig{}};
    return eeg::make_dataset(gen, 1, 0, 77).segments.front().waveform;
  }();
  return w;
}

struct World {
  power::TechnologyParams tech;
  eeg::Dataset dataset;
  classify::EpilepsyDetector detector;

  World()
      : dataset(eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 2, 2,
                                  11)),
        detector(classify::EpilepsyDetector::train(
            eeg::make_dataset(eeg::Generator{eeg::GeneratorConfig{}}, 12, 12,
                              22),
            [] {
              classify::DetectorConfig cfg;
              cfg.train.epochs = 40;
              return cfg;
            }())) {}
};

World& world() {
  static World w;
  return w;
}

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("efficsense_arch_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry basics.

TEST(ArchRegistry, ListsTheFiveBuiltins) {
  const auto list = ArchRegistry::instance().list();
  ASSERT_EQ(list.size(), 5u);
  EXPECT_EQ(list[0]->id(), "baseline");
  EXPECT_EQ(list[1]->id(), "cs_active");
  EXPECT_EQ(list[2]->id(), "cs_digital");
  EXPECT_EQ(list[3]->id(), "cs_passive");
  EXPECT_EQ(list[4]->id(), "lc_adc");
  for (const Architecture* a : list) EXPECT_FALSE(a->description().empty());
}

TEST(ArchRegistry, UnknownIdErrorSuggestsTheList) {
  try {
    ArchRegistry::instance().get("cs_pasive");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cs_pasive"), std::string::npos);
    EXPECT_NE(what.find("cs_passive"), std::string::npos);
    EXPECT_NE(what.find("lc_adc"), std::string::npos);
  }
}

TEST(ArchRegistry, ForDesignReproducesLegacyDispatch) {
  auto& reg = ArchRegistry::instance();
  EXPECT_EQ(reg.for_design(styled_design(0, power::CsStyle::PassiveCharge)).id(),
            "baseline");
  EXPECT_EQ(
      reg.for_design(styled_design(75, power::CsStyle::PassiveCharge)).id(),
      "cs_passive");
  EXPECT_EQ(
      reg.for_design(styled_design(75, power::CsStyle::ActiveIntegrator)).id(),
      "cs_active");
  EXPECT_EQ(reg.for_design(styled_design(75, power::CsStyle::DigitalMac)).id(),
            "cs_digital");
}

TEST(ArchRegistry, DuplicateRegistrationThrows) {
  class Dup final : public Architecture {
   public:
    std::string id() const override { return "baseline"; }
    std::string description() const override { return "dup"; }
    bool matches(const power::DesignParams&) const override { return false; }
    std::unique_ptr<sim::Model> build_model(
        const power::TechnologyParams&, const power::DesignParams&,
        const ChainSeeds&) const override {
      return nullptr;
    }
    std::unique_ptr<Decoder> make_decoder(
        const power::DesignParams&, const ChainSeeds&,
        const cs::ReconstructorConfig&) const override {
      return nullptr;
    }
  };
  EXPECT_THROW(ArchRegistry::instance().add(std::make_unique<Dup>()), Error);
}

// ---------------------------------------------------------------------------
// The bugfix: an unrecognized cs_style used to fall through to the passive
// builder silently; it must now be a hard registry-lookup error.

TEST(ArchRegistry, UnknownCsStyleIsAHardError) {
  auto bad = styled_design(75, static_cast<power::CsStyle>(7));
  try {
    build_chain(power::TechnologyParams{}, bad, {});
    FAIL() << "expected Error, got a silently built chain";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no registered architecture"), std::string::npos);
    EXPECT_NE(what.find("cs_style=7"), std::string::npos);
    EXPECT_NE(what.find("cs_passive"), std::string::npos);  // the list
  }
  EXPECT_THROW(make_matched_reconstructor(bad, {}), Error);
}

// ---------------------------------------------------------------------------
// Bitwise equivalence: registry-built chains replay the legacy builders.

TEST(ArchEquivalence, RegistryChainsMatchLegacyWaveformsBitwise) {
  const power::TechnologyParams tech;
  for (const auto& lc : legacy_chains()) {
    auto legacy = lc.build(tech, lc.design, {});
    auto via_id =
        ArchRegistry::instance().get(lc.id).build_model(tech, lc.design, {});
    auto via_auto = build_chain(tech, lc.design, {});

    const auto ref = run_chain(*legacy, test_segment());
    const auto a = run_chain(*via_id, test_segment());
    const auto b = run_chain(*via_auto, test_segment());
    const auto h = fnv1a_doubles(ref.samples);
    EXPECT_EQ(fnv1a_doubles(a.samples), h) << lc.id;
    EXPECT_EQ(fnv1a_doubles(b.samples), h) << lc.id;
    // And the analytic reports agree entry for entry.
    const auto& arch = ArchRegistry::instance().get(lc.id);
    EXPECT_EQ(arch.power_report(*via_id).total_watts(),
              legacy->power_report().total_watts())
        << lc.id;
    EXPECT_EQ(arch.area_report(*via_id).total_unit_caps(),
              legacy->area_report().total_unit_caps())
        << lc.id;
  }
}

// Seed-pinned goldens captured on the legacy builders before the registry
// migration: the registry path must keep reproducing them bit for bit.
TEST(ArchEquivalence, SeedPinnedGoldenChecksums) {
  const power::TechnologyParams tech;
  const std::vector<std::pair<const char*, std::uint64_t>> golden = {
      {"baseline", 0x1E45030AA4D5C2B4ULL},
      {"cs_passive", 0x8D601EFE06F08DB6ULL},
      {"cs_active", 0xCC6EBAAF5A5A296CULL},
      {"cs_digital", 0x49A82B14B51B63ACULL},
  };
  for (const auto& lc : legacy_chains()) {
    auto chain =
        ArchRegistry::instance().get(lc.id).build_model(tech, lc.design, {});
    const auto out = run_chain(*chain, test_segment());
    const auto it =
        std::find_if(golden.begin(), golden.end(),
                     [&](const auto& g) { return g.first == std::string(lc.id); });
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(fnv1a_doubles(out.samples), it->second) << lc.id;
  }
}

TEST(ArchEquivalence, EvaluatorMetricsIdenticalViaExplicitId) {
  for (const auto& lc : legacy_chains()) {
    core::EvalOptions auto_opt;
    auto_opt.max_segments = 2;
    const core::Evaluator legacy(world().tech, &world().dataset,
                                 &world().detector, auto_opt);
    core::EvalOptions id_opt = auto_opt;
    id_opt.architecture = lc.id;
    const core::Evaluator via_id(world().tech, &world().dataset,
                                 &world().detector, id_opt);

    const auto a = legacy.evaluate(lc.design);
    const auto b = via_id.evaluate(lc.design);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.snr_db),
              std::bit_cast<std::uint64_t>(b.snr_db))
        << lc.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.accuracy),
              std::bit_cast<std::uint64_t>(b.accuracy))
        << lc.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power_w),
              std::bit_cast<std::uint64_t>(b.power_w))
        << lc.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.area_unit_caps),
              std::bit_cast<std::uint64_t>(b.area_unit_caps))
        << lc.id;
    EXPECT_EQ(a.segments_evaluated, b.segments_evaluated);
  }
}

// The whole durable pipeline: a journaled sweep over a mixed
// baseline/CS space digests identically whether chains come from the
// legacy-equivalent auto dispatch or per-point registry resolution, and
// reproduces the seed-pinned RESULT_DIGEST.
TEST(ArchEquivalence, JournalResultDigestMatchesLegacy) {
  TempDir tmp;
  core::EvalOptions opt;
  opt.recon.residual_tol = 0.02;
  opt.max_segments = 2;
  const core::Evaluator evaluator(world().tech, &world().dataset,
                                  &world().detector, opt);

  core::DesignSpace space;
  space.add_axis("lna_noise_vrms", {2e-6, 20e-6}).add_axis("cs_m", {0, 75});

  run::RunOptions options;
  options.journal_path = tmp.path("sweep.jsonl");
  options.config_digest = evaluator.config_digest();
  const run::DurableSweeper sweeper(&evaluator, options);
  const auto outcome = sweeper.run(power::DesignParams{}, space);
  ASSERT_EQ(outcome.results.size(), 4u);
  const auto csv = core::sweep_to_csv(outcome.results);

  // Seed-pinned golden: any bitwise drift in chain, decode, metrics or CSV
  // serialization shows up here.
  EXPECT_EQ(fnv1a(csv), 0x49591DAE4CC06DDAULL);

  // Resume adopts every point and re-serializes to the same bytes.
  const auto resumed = sweeper.run(power::DesignParams{}, space);
  EXPECT_EQ(resumed.points_resumed, 4u);
  EXPECT_EQ(core::sweep_to_csv(resumed.results), csv);
}

// ---------------------------------------------------------------------------
// Decoders.

TEST(Decoders, PassthroughReturnsInput) {
  PassthroughDecoder d;
  const std::vector<double> x = {1.0, -2.5, 3.25};
  EXPECT_EQ(d.decode(x, nullptr), x);
}

TEST(Decoders, CsDecoderMatchesMatchedReconstructor) {
  const auto design = styled_design(75, power::CsStyle::PassiveCharge);
  cs::ReconstructorConfig rc;
  rc.residual_tol = 0.02;
  const auto decoder =
      ArchRegistry::instance().get("cs_passive").make_decoder(design, {}, rc);
  const auto recon = make_matched_reconstructor(design, {}, rc);

  auto chain = build_cs_chain(power::TechnologyParams{}, design, {});
  const auto received = run_chain(*chain, test_segment());
  const auto via_decoder = decoder->decode(received.samples, nullptr);
  const auto via_recon = recon.reconstruct_stream(received.samples, nullptr);
  ASSERT_EQ(via_decoder.size(), via_recon.size());
  EXPECT_EQ(fnv1a_doubles(via_decoder), fnv1a_doubles(via_recon));
}

// ---------------------------------------------------------------------------
// Batched SoA engine (sim::LaneBank + Block::process_batch): every lane of a
// batched chain must be bit-identical to the scalar chain built from that
// lane's seeds — the scalar path stays the oracle — and lane i's content
// must not depend on the lane width K it rides in.

#include "util/rng.hpp"

namespace {

/// Monte-Carlo-style per-lane seeds: the mismatch (and optionally noise)
/// stream each instance would get from monte_carlo() with base seed 0xFAB.
std::vector<ChainSeeds> mc_lane_seeds(std::size_t lanes, bool vary_noise) {
  std::vector<ChainSeeds> out(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    out[i].mismatch = derive_seed(0xFAB, 2 * i);
    if (vary_noise) out[i].noise = derive_seed(0xFAB, 2 * i + 1);
  }
  return out;
}

std::uint64_t lane_hash(const sim::LaneBank& bank, std::size_t k) {
  const double* p = bank.lane(k);
  return fnv1a_doubles(std::vector<double>(p, p + bank.samples()));
}

struct BatchedArch {
  const char* id;
  power::DesignParams design;
};

std::vector<BatchedArch> batched_archs() {
  return {{"baseline", styled_design(0, power::CsStyle::PassiveCharge)},
          {"cs_passive", styled_design(75, power::CsStyle::PassiveCharge)},
          {"cs_digital", styled_design(75, power::CsStyle::DigitalMac)}};
}

}  // namespace

TEST(BatchEquivalence, LanesMatchScalarOracleBitwise) {
  const power::TechnologyParams tech;
  for (const bool vary_noise : {false, true}) {
    const auto lane_seeds = mc_lane_seeds(4, vary_noise);
    for (const auto& c : batched_archs()) {
      const auto& architecture = ArchRegistry::instance().get(c.id);
      auto batch = architecture.build_batch_model(tech, c.design, lane_seeds);
      ASSERT_NE(batch, nullptr) << c.id;
      const auto& bank =
          run_chain_batch(*batch, test_segment(), lane_seeds.size());
      EXPECT_EQ(bank.lanes(), lane_seeds.size());
      for (std::size_t k = 0; k < lane_seeds.size(); ++k) {
        auto scalar = architecture.build_model(tech, c.design, lane_seeds[k]);
        const auto out = run_chain(*scalar, test_segment());
        ASSERT_EQ(bank.samples(), out.samples.size()) << c.id;
        EXPECT_EQ(lane_hash(bank, k), fnv1a_doubles(out.samples))
            << c.id << " lane " << k
            << (vary_noise ? " (varied noise)" : " (shared noise)");
      }
    }
  }
}

TEST(BatchEquivalence, LaneSeedingIndependentOfLaneWidth) {
  // Rng::split-derived lane streams depend only on the lane's own seeds, so
  // lane i is bit-identical whether it runs at K=1, K=4 or K=8.
  const power::TechnologyParams tech;
  const auto& architecture = ArchRegistry::instance().get("cs_passive");
  const auto design = styled_design(75, power::CsStyle::PassiveCharge);

  const auto seeds8 = mc_lane_seeds(8, true);
  auto chain8 = architecture.build_batch_model(tech, design, seeds8);
  ASSERT_NE(chain8, nullptr);
  const auto& bank8 = run_chain_batch(*chain8, test_segment(), 8);
  std::vector<std::uint64_t> golden;
  for (std::size_t k = 0; k < 8; ++k) golden.push_back(lane_hash(bank8, k));

  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const auto seeds = mc_lane_seeds(width, true);
    auto chain = architecture.build_batch_model(tech, design, seeds);
    ASSERT_NE(chain, nullptr);
    const auto& bank = run_chain_batch(*chain, test_segment(), width);
    for (std::size_t k = 0; k < width; ++k) {
      EXPECT_EQ(lane_hash(bank, k), golden[k]) << "K=" << width << " lane " << k;
    }
  }
}

TEST(BatchEquivalence, UnbatchedArchitecturesDeclineGracefully) {
  // cs_active and lc_adc have no batched model yet: build_batch_model must
  // return nullptr so the evaluator runs their lanes as one-lane groups.
  const power::TechnologyParams tech;
  const auto seeds = mc_lane_seeds(2, false);
  EXPECT_EQ(ArchRegistry::instance().get("cs_active").build_batch_model(
                tech, styled_design(75, power::CsStyle::ActiveIntegrator),
                seeds),
            nullptr);
  EXPECT_EQ(ArchRegistry::instance().get("lc_adc").build_batch_model(
                tech, styled_design(0, power::CsStyle::PassiveCharge), seeds),
            nullptr);
}

TEST(BatchEquivalence, MixedPhiSeedsRejected) {
  const power::TechnologyParams tech;
  auto seeds = mc_lane_seeds(2, false);
  seeds[1].phi ^= 1;  // lanes must share the programmed sensing matrix
  EXPECT_THROW(ArchRegistry::instance().get("cs_passive").build_batch_model(
                   tech, styled_design(75, power::CsStyle::PassiveCharge),
                   seeds),
               Error);
}

TEST(BatchEquivalence, EvaluateLanesMatchesScalarEvaluate) {
  core::EvalOptions opts;
  opts.max_segments = 2;
  const core::Evaluator eval(world().tech, &world().dataset, &world().detector,
                             opts);
  power::DesignParams d = styled_design(75, power::CsStyle::PassiveCharge);
  d.lna_noise_vrms = 6e-6;
  const auto lane_seeds = mc_lane_seeds(4, false);
  const auto lanes = eval.evaluate_lanes(d, lane_seeds);
  ASSERT_EQ(lanes.size(), 4u);
  for (std::size_t k = 0; k < lane_seeds.size(); ++k) {
    core::Evaluator local = eval;
    local.set_seeds(lane_seeds[k]);
    const auto m = local.evaluate(d);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[k].snr_db),
              std::bit_cast<std::uint64_t>(m.snr_db))
        << "lane " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[k].accuracy),
              std::bit_cast<std::uint64_t>(m.accuracy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[k].power_w),
              std::bit_cast<std::uint64_t>(m.power_w));
    EXPECT_EQ(lanes[k].segments_evaluated, m.segments_evaluated);
  }
  // K=1 is a group of one: it equals evaluate() with that lane's seeds.
  const auto one = mc_lane_seeds(1, false);
  const auto single = eval.evaluate_lanes(d, one);
  ASSERT_EQ(single.size(), 1u);
  core::Evaluator local = eval;
  local.set_seeds(one.front());
  const auto m = local.evaluate(d);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(single[0].snr_db),
            std::bit_cast<std::uint64_t>(m.snr_db));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(single[0].accuracy),
            std::bit_cast<std::uint64_t>(m.accuracy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(single[0].power_w),
            std::bit_cast<std::uint64_t>(m.power_w));
  EXPECT_EQ(single[0].segments_evaluated, m.segments_evaluated);
}
