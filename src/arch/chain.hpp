#pragma once
// Chain builders: assemble the acquisition architectures of Fig. 1 as
// sim::Models from a DesignParams.
//
//  baseline (Fig. 1a):  source -> lna -> sh -> adc -> tx
//  CS       (Fig. 1b):  source -> lna -> cs_enc -> adc -> tx
//
// Block names are fixed (listed above) so power/area reports and probes are
// stable across the framework. The per-style free functions below are the
// legacy entry points; build_chain() dispatches through the ArchRegistry
// (arch/architecture.hpp), so an unrecognized style is a hard error instead
// of silently building the passive chain.

#include <cstdint>
#include <memory>

#include "blocks/cs_encoder.hpp"
#include "cs/reconstructor.hpp"
#include "power/tech.hpp"
#include "sim/model.hpp"

namespace efficsense::arch {

struct ChainSeeds {
  std::uint64_t mismatch = 11;  ///< fabrication (frozen per chain instance)
  std::uint64_t noise = 22;     ///< per-run noise streams
  std::uint64_t phi = 33;       ///< sensing-matrix draw
};

/// Canonical block names used by the builders.
inline constexpr const char* kSourceBlock = "source";
inline constexpr const char* kLnaBlock = "lna";
inline constexpr const char* kSampleHoldBlock = "sh";
inline constexpr const char* kCsEncoderBlock = "cs_enc";
inline constexpr const char* kAdcBlock = "adc";
inline constexpr const char* kTxBlock = "tx";

/// Build the classical chain of Fig. 1a. The returned model has a
/// WaveformSource named "source" to inject segments into.
std::unique_ptr<sim::Model> build_baseline_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds);

/// Build the passive charge-sharing CS chain of Fig. 1b (design.uses_cs()
/// and cs_style == PassiveCharge must hold).
/// `encoder_options` toggles the encoder's non-idealities (ablation use).
std::unique_ptr<sim::Model> build_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds,
    const blocks::CsEncoderOptions& encoder_options = {});

/// Build the active-integrator CS chain (cs_style == ActiveIntegrator):
/// source -> lna -> cs_enc (OTA integrators) -> adc -> tx.
std::unique_ptr<sim::Model> build_active_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds);

/// Build the digital-MAC CS chain (cs_style == DigitalMac):
/// source -> lna -> sh -> adc (full rate) -> cs_enc (digital) -> tx.
std::unique_ptr<sim::Model> build_digital_cs_chain(
    const power::TechnologyParams& tech, const power::DesignParams& design,
    const ChainSeeds& seeds);

/// Build the chain matching design.uses_cs() and design.cs_style by looking
/// the design up in the ArchRegistry. Throws Error (listing the registered
/// architectures) when no architecture matches — e.g. a cs_style value the
/// registry does not know.
std::unique_ptr<sim::Model> build_chain(const power::TechnologyParams& tech,
                                        const power::DesignParams& design,
                                        const ChainSeeds& seeds);

/// The sensing-matrix draw a CS chain built with this design + phi seed
/// installs in its encoder block.
cs::SparseBinaryMatrix matched_phi(const power::DesignParams& design,
                                   std::uint64_t phi_seed);

/// The nominal (mismatch-free) encoder gains of the design's CS style: the
/// a/b a matched decoder compensates for. Throws Error on an unknown style.
cs::ChargeSharingGains matched_gains(const power::DesignParams& design);

/// The reconstructor matched to a CS chain built with the same design and
/// seeds: identical sensing matrix and nominal charge-sharing gains.
cs::Reconstructor make_matched_reconstructor(
    const power::DesignParams& design, const ChainSeeds& seeds,
    cs::ReconstructorConfig config = {});

/// Inject a waveform and run the model; returns the transmitter output.
sim::Waveform run_chain(sim::Model& model, const sim::Waveform& input);

// --- K-lane batched chains (SoA Monte-Carlo engine) ------------------------
//
// A batched chain is the scalar chain built from lane_seeds[0] with per-lane
// fabrication state (ADC DAC weights, CS capacitor arrays) installed for
// every lane, and — when the lanes' noise seeds differ — per-lane noise
// streams on each stochastic block (Architecture::build_batch_model). Lane k
// of a run_batch() is bit-identical to a chain built from lane_seeds[k];
// per-lane stream seeds derive through Rng::split(), which reproduces the
// derive_seed() chain of the builders above exactly. All lanes must share
// the phi seed (one sensing matrix / decoder).

/// Per-lane stream seed: Rng(base).split(stream).seed(), bitwise equal to
/// the derive_seed(base, stream) the builders use.
std::uint64_t lane_stream_seed(std::uint64_t base, std::uint64_t stream);

/// Inject one shared waveform (broadcast to every lane) and run the batched
/// model; returns the transmitter output bank. The reference is valid until
/// the model's next run/run_batch/reset.
const sim::LaneBank& run_chain_batch(sim::Model& model,
                                     const sim::Waveform& input,
                                     std::size_t lanes);

}  // namespace efficsense::arch
