#include "arch/chain.hpp"

#include "arch/architecture.hpp"
#include "blocks/cs_encoder.hpp"
#include "blocks/cs_encoder_active.hpp"
#include "blocks/cs_encoder_digital.hpp"
#include "blocks/lna.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sar_adc.hpp"
#include "blocks/sources.hpp"
#include "blocks/transmitter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace efficsense::arch {

namespace {

cs::SparseBinaryMatrix draw_phi(const power::DesignParams& design,
                                std::uint64_t phi_seed) {
  return cs::SparseBinaryMatrix::generate(
      static_cast<std::size_t>(design.cs_m),
      static_cast<std::size_t>(design.cs_n_phi),
      static_cast<std::size_t>(design.cs_sparsity), phi_seed);
}

}  // namespace

cs::SparseBinaryMatrix matched_phi(const power::DesignParams& design,
                                   std::uint64_t phi_seed) {
  return draw_phi(design, phi_seed);
}

cs::ChargeSharingGains matched_gains(const power::DesignParams& design) {
  cs::ChargeSharingGains gains;
  if (design.cs_style == power::CsStyle::PassiveCharge) {
    gains = cs::charge_sharing_gains(design.cs_c_sample_f, design.cs_c_hold_f);
  } else if (design.cs_style == power::CsStyle::ActiveIntegrator) {
    gains.a = design.cs_c_sample_f / design.cs_c_int_f;
    gains.b = 1.0;  // virtual ground: no decay
  } else if (design.cs_style == power::CsStyle::DigitalMac) {
    gains.a = 1.0;  // exact binary sums
    gains.b = 1.0;
  } else {
    throw Error("unknown cs_style " +
                std::to_string(static_cast<int>(design.cs_style)) +
                "; no matched decoder gains");
  }
  return gains;
}

std::unique_ptr<sim::Model> build_baseline_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds) {
  design.validate();
  auto model = std::make_unique<sim::Model>();
  const auto src = model->add(std::make_unique<blocks::WaveformSource>(kSourceBlock));
  const auto lna = model->add(std::make_unique<blocks::LnaBlock>(
      kLnaBlock, tech, design, derive_seed(seeds.noise, 1)));
  const auto sh = model->add(std::make_unique<blocks::SampleHoldBlock>(
      kSampleHoldBlock, tech, design, derive_seed(seeds.noise, 2)));
  const auto adc = model->add(std::make_unique<blocks::SarAdcBlock>(
      kAdcBlock, tech, design, derive_seed(seeds.mismatch, 3),
      derive_seed(seeds.noise, 3)));
  const auto tx = model->add(std::make_unique<blocks::TransmitterBlock>(
      kTxBlock, tech, design, derive_seed(seeds.noise, 4)));
  model->chain({src, lna, sh, adc, tx});
  return model;
}

std::unique_ptr<sim::Model> build_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds, const blocks::CsEncoderOptions& encoder_options) {
  design.validate();
  EFF_REQUIRE(design.uses_cs(), "design does not enable CS");
  EFF_REQUIRE(design.cs_style == power::CsStyle::PassiveCharge,
              "build_cs_chain builds the passive charge-sharing style");
  auto model = std::make_unique<sim::Model>();
  const auto src = model->add(std::make_unique<blocks::WaveformSource>(kSourceBlock));
  const auto lna = model->add(std::make_unique<blocks::LnaBlock>(
      kLnaBlock, tech, design, derive_seed(seeds.noise, 1)));
  const auto enc = model->add(std::make_unique<blocks::CsEncoderBlock>(
      kCsEncoderBlock, tech, design, draw_phi(design, seeds.phi),
      derive_seed(seeds.mismatch, 5), derive_seed(seeds.noise, 5),
      encoder_options));
  // The converter digitizes the held measurements directly, so it carries
  // the sampling-network power itself.
  const auto adc = model->add(std::make_unique<blocks::SarAdcBlock>(
      kAdcBlock, tech, design, derive_seed(seeds.mismatch, 3),
      derive_seed(seeds.noise, 3), /*include_sampling_network=*/true));
  const auto tx = model->add(std::make_unique<blocks::TransmitterBlock>(
      kTxBlock, tech, design, derive_seed(seeds.noise, 4)));
  model->chain({src, lna, enc, adc, tx});
  return model;
}

std::unique_ptr<sim::Model> build_active_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds) {
  design.validate();
  EFF_REQUIRE(design.uses_cs(), "design does not enable CS");
  EFF_REQUIRE(design.cs_style == power::CsStyle::ActiveIntegrator,
              "design is not configured for the active-integrator style");
  auto model = std::make_unique<sim::Model>();
  const auto src = model->add(std::make_unique<blocks::WaveformSource>(kSourceBlock));
  const auto lna = model->add(std::make_unique<blocks::LnaBlock>(
      kLnaBlock, tech, design, derive_seed(seeds.noise, 1)));
  const auto enc = model->add(std::make_unique<blocks::ActiveCsEncoderBlock>(
      kCsEncoderBlock, tech, design, draw_phi(design, seeds.phi),
      derive_seed(seeds.mismatch, 6), derive_seed(seeds.noise, 6)));
  const auto adc = model->add(std::make_unique<blocks::SarAdcBlock>(
      kAdcBlock, tech, design, derive_seed(seeds.mismatch, 3),
      derive_seed(seeds.noise, 3), /*include_sampling_network=*/true));
  const auto tx = model->add(std::make_unique<blocks::TransmitterBlock>(
      kTxBlock, tech, design, derive_seed(seeds.noise, 4)));
  model->chain({src, lna, enc, adc, tx});
  return model;
}

std::unique_ptr<sim::Model> build_digital_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds) {
  design.validate();
  EFF_REQUIRE(design.uses_cs(), "design does not enable CS");
  EFF_REQUIRE(design.cs_style == power::CsStyle::DigitalMac,
              "design is not configured for the digital-MAC style");
  auto model = std::make_unique<sim::Model>();
  const auto src = model->add(std::make_unique<blocks::WaveformSource>(kSourceBlock));
  const auto lna = model->add(std::make_unique<blocks::LnaBlock>(
      kLnaBlock, tech, design, derive_seed(seeds.noise, 1)));
  const auto sh = model->add(std::make_unique<blocks::SampleHoldBlock>(
      kSampleHoldBlock, tech, design, derive_seed(seeds.noise, 2)));
  const auto adc = model->add(std::make_unique<blocks::SarAdcBlock>(
      kAdcBlock, tech, design, derive_seed(seeds.mismatch, 3),
      derive_seed(seeds.noise, 3)));
  const auto enc = model->add(std::make_unique<blocks::DigitalCsEncoderBlock>(
      kCsEncoderBlock, tech, design, draw_phi(design, seeds.phi)));
  const auto tx = model->add(std::make_unique<blocks::TransmitterBlock>(
      kTxBlock, tech, design, derive_seed(seeds.noise, 4)));
  model->chain({src, lna, sh, adc, enc, tx});
  return model;
}

std::unique_ptr<sim::Model> build_chain(const power::TechnologyParams& tech,
                                        const power::DesignParams& design,
                                        const ChainSeeds& seeds) {
  // Registry dispatch: an unknown cs_style matches no architecture and
  // throws, instead of the historical silent fall-through to the passive
  // builder.
  return ArchRegistry::instance().for_design(design).build_model(tech, design,
                                                                 seeds);
}

cs::Reconstructor make_matched_reconstructor(const power::DesignParams& design,
                                             const ChainSeeds& seeds,
                                             cs::ReconstructorConfig config) {
  EFF_REQUIRE(design.uses_cs(), "design does not enable CS");
  return cs::Reconstructor(draw_phi(design, seeds.phi), matched_gains(design),
                           config);
}

sim::Waveform run_chain(sim::Model& model, const sim::Waveform& input) {
  auto* source = dynamic_cast<sim::WaveformSettable*>(&model.block(kSourceBlock));
  EFF_REQUIRE(source != nullptr, "chain source cannot accept a waveform");
  source->set_waveform(input);
  auto outputs = model.run();
  EFF_REQUIRE(outputs.size() == 1, "chain should have exactly one output");
  return std::move(outputs.front());
}

std::uint64_t lane_stream_seed(std::uint64_t base, std::uint64_t stream) {
  return Rng(base).split(stream).seed();
}

const sim::LaneBank& run_chain_batch(sim::Model& model,
                                     const sim::Waveform& input,
                                     std::size_t lanes) {
  auto* source =
      dynamic_cast<sim::WaveformSettable*>(&model.block(kSourceBlock));
  EFF_REQUIRE(source != nullptr, "chain source cannot accept a waveform");
  source->set_waveform(input);
  auto outputs = model.run_batch(lanes);
  EFF_REQUIRE(outputs.size() == 1, "chain should have exactly one output");
  return *outputs.front();
}

}  // namespace efficsense::arch
