// The five built-in architectures. The four legacy chains delegate to the
// chain builders so the registry path is bitwise-identical to the free
// functions (tests/test_arch.cpp pins that with golden checksums); the
// LC-ADC event-driven chain promotes blocks/lc_adc from a bench-only block
// to a first-class evaluable front-end.

#include <algorithm>
#include <memory>
#include <utility>

#include "arch/architecture.hpp"
#include "arch/recon_cache.hpp"
#include "blocks/cs_encoder.hpp"
#include "blocks/lc_adc.hpp"
#include "blocks/lna.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sar_adc.hpp"
#include "blocks/sources.hpp"
#include "blocks/transmitter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::arch {

namespace {

std::unique_ptr<Decoder> cached_cs_decoder(const power::DesignParams& design,
                                           const ChainSeeds& seeds,
                                           const cs::ReconstructorConfig& rc) {
  // Non-reconstructing solvers (compressed_domain) route around the
  // Reconstructor entirely: the gateway keeps the measurement stream and the
  // detector consumes it directly.
  const cs::SparseSolver& solver =
      cs::SolverRegistry::instance().get(rc.solver_id());
  if (!solver.reconstructs()) {
    return std::make_unique<MeasurementDomainDecoder>(
        matched_phi(design, seeds.phi), matched_gains(design));
  }
  return std::make_unique<CsDecoder>(
      ReconstructorCache::instance().get(design, seeds, rc));
}

std::vector<std::uint64_t> lane_streams(
    const std::vector<ChainSeeds>& lane_seeds,
    std::uint64_t ChainSeeds::*base, std::uint64_t stream) {
  std::vector<std::uint64_t> out;
  out.reserve(lane_seeds.size());
  for (const ChainSeeds& s : lane_seeds) {
    out.push_back(lane_stream_seed(s.*base, stream));
  }
  return out;
}

template <typename BlockT>
BlockT* find_block(sim::Model& model, const char* name) {
  return model.has_block(name) ? dynamic_cast<BlockT*>(&model.block(name))
                               : nullptr;
}

/// The batched chain of `architecture`: its chain built from lane_seeds[0],
/// with every lane's fabrication state and — when the lanes' noise seeds
/// differ — every lane's noise streams installed on the blocks found under
/// the canonical names. Stream ids are the builders' own: lna 1, sh 2,
/// adc 3, tx 4, cs_enc 5.
std::unique_ptr<sim::Model> build_lane_chain(
    const Architecture& architecture, const power::TechnologyParams& tech,
    const power::DesignParams& design,
    const std::vector<ChainSeeds>& lane_seeds) {
  EFF_REQUIRE(!lane_seeds.empty(), "batched chain needs at least one lane");
  const ChainSeeds& first = lane_seeds.front();
  if (design.uses_cs()) {
    for (const ChainSeeds& s : lane_seeds) {
      EFF_REQUIRE(s.phi == first.phi,
                  "batched CS lanes must share the sensing matrix");
    }
  }
  auto model = architecture.build_model(tech, design, first);
  auto* lna = find_block<blocks::LnaBlock>(*model, kLnaBlock);
  auto* sh = find_block<blocks::SampleHoldBlock>(*model, kSampleHoldBlock);
  auto* adc = find_block<blocks::SarAdcBlock>(*model, kAdcBlock);
  auto* tx = find_block<blocks::TransmitterBlock>(*model, kTxBlock);
  auto* enc = find_block<blocks::CsEncoderBlock>(*model, kCsEncoderBlock);

  const auto mismatch = [&](std::uint64_t stream) {
    return lane_streams(lane_seeds, &ChainSeeds::mismatch, stream);
  };
  const auto noise = [&](std::uint64_t stream) {
    return lane_streams(lane_seeds, &ChainSeeds::noise, stream);
  };
  if (adc) adc->set_lane_mismatch_seeds(mismatch(3));
  if (enc) enc->set_lane_mismatch_seeds(mismatch(5));
  const bool shared_noise =
      std::all_of(lane_seeds.begin(), lane_seeds.end(),
                  [&](const ChainSeeds& s) { return s.noise == first.noise; });
  if (!shared_noise) {
    if (lna) lna->set_lane_noise_seeds(noise(1));
    if (sh) sh->set_lane_noise_seeds(noise(2));
    if (adc) adc->set_lane_noise_seeds(noise(3));
    if (tx) tx->set_lane_noise_seeds(noise(4));
    if (enc) enc->set_lane_noise_seeds(noise(5));
  }
  return model;
}

class BaselineArchitecture final : public Architecture {
 public:
  std::string id() const override { return "baseline"; }
  std::string description() const override {
    return "fixed-rate Nyquist chain (Fig. 1a): lna -> S&H -> SAR -> tx";
  }
  bool matches(const power::DesignParams& design) const override {
    return !design.uses_cs();
  }
  std::unique_ptr<sim::Model> build_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const ChainSeeds& seeds) const override {
    return build_baseline_chain(tech, design, seeds);
  }
  std::unique_ptr<sim::Model> build_batch_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const std::vector<ChainSeeds>& lane_seeds) const override {
    return build_lane_chain(*this, tech, design, lane_seeds);
  }
  std::unique_ptr<Decoder> make_decoder(
      const power::DesignParams&, const ChainSeeds&,
      const cs::ReconstructorConfig&) const override {
    return std::make_unique<PassthroughDecoder>();
  }
};

class PassiveCsArchitecture final : public Architecture {
 public:
  std::string id() const override { return "cs_passive"; }
  std::string description() const override {
    return "passive charge-sharing CS chain (Fig. 1b/5): lna -> SC encoder "
           "-> SAR -> tx, OMP decode";
  }
  bool matches(const power::DesignParams& design) const override {
    return design.uses_cs() &&
           design.cs_style == power::CsStyle::PassiveCharge;
  }
  std::unique_ptr<sim::Model> build_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const ChainSeeds& seeds) const override {
    return build_cs_chain(tech, design, seeds);
  }
  std::unique_ptr<sim::Model> build_batch_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const std::vector<ChainSeeds>& lane_seeds) const override {
    return build_lane_chain(*this, tech, design, lane_seeds);
  }
  std::unique_ptr<Decoder> make_decoder(
      const power::DesignParams& design, const ChainSeeds& seeds,
      const cs::ReconstructorConfig& rc) const override {
    return cached_cs_decoder(design, seeds, rc);
  }
};

class ActiveCsArchitecture final : public Architecture {
 public:
  std::string id() const override { return "cs_active"; }
  std::string description() const override {
    return "active-integrator CS chain: lna -> OTA integrator array -> SAR "
           "-> tx, OMP decode";
  }
  bool matches(const power::DesignParams& design) const override {
    return design.uses_cs() &&
           design.cs_style == power::CsStyle::ActiveIntegrator;
  }
  std::unique_ptr<sim::Model> build_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const ChainSeeds& seeds) const override {
    return build_active_cs_chain(tech, design, seeds);
  }
  std::unique_ptr<Decoder> make_decoder(
      const power::DesignParams& design, const ChainSeeds& seeds,
      const cs::ReconstructorConfig& rc) const override {
    return cached_cs_decoder(design, seeds, rc);
  }
};

class DigitalCsArchitecture final : public Architecture {
 public:
  std::string id() const override { return "cs_digital"; }
  std::string description() const override {
    return "digital-MAC CS chain: lna -> S&H -> full-rate SAR -> digital "
           "MAC -> tx, OMP decode";
  }
  bool matches(const power::DesignParams& design) const override {
    return design.uses_cs() && design.cs_style == power::CsStyle::DigitalMac;
  }
  std::unique_ptr<sim::Model> build_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const ChainSeeds& seeds) const override {
    return build_digital_cs_chain(tech, design, seeds);
  }
  std::unique_ptr<sim::Model> build_batch_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const std::vector<ChainSeeds>& lane_seeds) const override {
    return build_lane_chain(*this, tech, design, lane_seeds);
  }
  std::unique_ptr<Decoder> make_decoder(
      const power::DesignParams& design, const ChainSeeds& seeds,
      const cs::ReconstructorConfig& rc) const override {
    return cached_cs_decoder(design, seeds, rc);
  }
};

/// Transmit stage of the event-driven chain: passes the LC-ADC's
/// receiver-side reconstruction through unchanged and reports the transmit
/// power implied by the measured event rate (bits_per_event * rate * E_bit).
class LcTxBlock final : public sim::Block {
 public:
  LcTxBlock(std::string name, const blocks::LcAdcBlock* lc)
      : sim::Block(std::move(name), 1, 1), lc_(lc) {}

  std::vector<sim::Waveform> process(
      const std::vector<sim::Waveform>& in) override {
    return {in.at(0)};
  }
  double power_watts() const override { return lc_->tx_power_watts(); }

 private:
  const blocks::LcAdcBlock* lc_;  // lives in the same model
};

class LcAdcArchitecture final : public Architecture {
 public:
  std::string id() const override { return "lc_adc"; }
  std::string description() const override {
    return "event-driven level-crossing ADC chain [15]: lna -> LC-ADC -> "
           "tx; signal-dependent power";
  }
  // Not expressible in DesignParams: only reachable by explicit id.
  bool matches(const power::DesignParams&) const override { return false; }

  std::unique_ptr<sim::Model> build_model(
      const power::TechnologyParams& tech, const power::DesignParams& design,
      const ChainSeeds& seeds) const override {
    design.validate();
    auto model = std::make_unique<sim::Model>();
    const auto src =
        model->add(std::make_unique<blocks::WaveformSource>(kSourceBlock));
    const auto lna = model->add(std::make_unique<blocks::LnaBlock>(
        kLnaBlock, tech, design, derive_seed(seeds.noise, 1)));
    blocks::LcAdcConfig cfg;
    cfg.levels_bits = design.adc_bits;  // the resolution knob of the sweep
    auto lc_block =
        std::make_unique<blocks::LcAdcBlock>(kAdcBlock, tech, design, cfg);
    const blocks::LcAdcBlock* lc_ptr = lc_block.get();
    const auto lc = model->add(std::move(lc_block));
    const auto tx = model->add(std::make_unique<LcTxBlock>(kTxBlock, lc_ptr));
    model->chain({src, lna, lc, tx});
    return model;
  }

  std::unique_ptr<Decoder> make_decoder(
      const power::DesignParams&, const ChainSeeds&,
      const cs::ReconstructorConfig&) const override {
    // The block already emits the receiver-side linear-interpolation
    // reconstruction on the uniform f_sample grid.
    return std::make_unique<PassthroughDecoder>();
  }

  bool signal_dependent_power() const override { return true; }
};

}  // namespace

void register_builtin_architectures(ArchRegistry& registry) {
  registry.add(std::make_unique<BaselineArchitecture>());
  registry.add(std::make_unique<PassiveCsArchitecture>());
  registry.add(std::make_unique<ActiveCsArchitecture>());
  registry.add(std::make_unique<DigitalCsArchitecture>());
  registry.add(std::make_unique<LcAdcArchitecture>());
}

}  // namespace efficsense::arch
