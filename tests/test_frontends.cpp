// The three CS encoder styles (passive charge-sharing / active integrator /
// digital MAC): power models, rate bookkeeping, functional behaviour and
// end-to-end reconstruction.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "arch/chain.hpp"
#include "blocks/cs_encoder_active.hpp"
#include "blocks/transmitter.hpp"
#include "blocks/cs_encoder_digital.hpp"
#include "core/design_space.hpp"
#include "cs/effective.hpp"
#include "dsp/metrics.hpp"
#include "dsp/resample.hpp"
#include "power/models.hpp"
#include "util/error.hpp"

using namespace efficsense;
using power::CsStyle;
using power::DesignParams;
using power::TechnologyParams;

namespace {

DesignParams cs_design(CsStyle style, int m = 96) {
  DesignParams d;
  d.cs_m = m;
  d.cs_style = style;
  return d;
}

}  // namespace

TEST(StyleRates, AdcRateDependsOnStyle) {
  const auto passive = cs_design(CsStyle::PassiveCharge);
  const auto active = cs_design(CsStyle::ActiveIntegrator);
  const auto digital = cs_design(CsStyle::DigitalMac);
  // Analog styles digitize only M measurements per frame.
  EXPECT_DOUBLE_EQ(passive.adc_rate_hz(), passive.f_sample_hz() / 4.0);
  EXPECT_DOUBLE_EQ(active.adc_rate_hz(), active.f_sample_hz() / 4.0);
  // The digital MAC needs every sample converted.
  EXPECT_DOUBLE_EQ(digital.adc_rate_hz(), digital.f_sample_hz());
  // All styles transmit at the compressed word rate.
  for (const auto& d : {passive, active, digital}) {
    EXPECT_DOUBLE_EQ(d.tx_sample_rate_hz(), d.f_sample_hz() / 4.0);
  }
}

TEST(StyleRates, DigitalWordsAreWider) {
  const auto digital = cs_design(CsStyle::DigitalMac, 96);
  // Mean row weight = 2*384/96 = 8 -> 3 bits + 1 headroom.
  EXPECT_EQ(digital.digital_acc_extra_bits(), 4);
  EXPECT_EQ(digital.tx_bits(), 12);
  EXPECT_EQ(cs_design(CsStyle::PassiveCharge).tx_bits(), 8);
  // Explicit headroom override wins.
  auto d = digital;
  d.cs_acc_headroom_bits = 6;
  EXPECT_EQ(d.tx_bits(), 14);
}

TEST(StyleRates, BitRateOrdersAsExpected) {
  const TechnologyParams tech;
  const auto passive = cs_design(CsStyle::PassiveCharge);
  const auto digital = cs_design(CsStyle::DigitalMac);
  const DesignParams baseline;
  EXPECT_LT(passive.bit_rate(), digital.bit_rate());
  EXPECT_LT(digital.bit_rate(), baseline.bit_rate());
  EXPECT_LT(power::transmitter_power(tech, passive),
            power::transmitter_power(tech, digital));
}

TEST(StylePower, OtaIntegratorHandComputed) {
  // I = GBW * 2pi * C_int / (gm/Id) per OTA; 75 OTAs at 2 V.
  const double gbw = 10.0 * 537.6;
  const double expected =
      75.0 * 2.0 * gbw * 2.0 * std::numbers::pi * 1e-12 / 20.0;
  EXPECT_NEAR(power::ota_integrator_power_w(75, 2.0, gbw, 1e-12, 20.0),
              expected, 1e-15);
  EXPECT_THROW(power::ota_integrator_power_w(0, 2.0, gbw, 1e-12, 20.0), Error);
}

TEST(StylePower, DigitalMacScalesWithSparsityAndWidth) {
  const double p1 =
      power::digital_mac_power_w(2, 537.6, 12, 96, 1e-15, 2.0);
  const double p2 =
      power::digital_mac_power_w(4, 537.6, 12, 96, 1e-15, 2.0);
  EXPECT_GT(p2, p1);
  const double p3 =
      power::digital_mac_power_w(2, 537.6, 24, 96, 1e-15, 2.0);
  EXPECT_GT(p3, p1);
  // Tiny at EEG rates (the point of the scaling bench).
  EXPECT_LT(p1, 1e-9);
}

TEST(StylePower, EncoderPowerRanking) {
  // At equal configuration: passive < active and passive < digital (the
  // paper's motivation for the passive architecture).
  const TechnologyParams tech;
  const auto passive = cs_design(CsStyle::PassiveCharge);
  const auto active = cs_design(CsStyle::ActiveIntegrator);
  const auto digital = cs_design(CsStyle::DigitalMac);
  EXPECT_LT(power::cs_encoder_power(tech, passive),
            power::cs_encoder_power(tech, active));
  EXPECT_LT(power::cs_encoder_power(tech, passive),
            power::cs_encoder_power(tech, digital));
}

TEST(StylePower, LnaLoadPerStyle) {
  const TechnologyParams tech;
  auto d = cs_design(CsStyle::PassiveCharge);
  d.cs_c_hold_f = 2e-12;
  EXPECT_DOUBLE_EQ(d.lna_cload_f(tech), 2e-12);
  d.cs_style = CsStyle::ActiveIntegrator;
  EXPECT_DOUBLE_EQ(d.lna_cload_f(tech), d.cs_c_sample_f);
  d.cs_style = CsStyle::DigitalMac;
  EXPECT_DOUBLE_EQ(d.lna_cload_f(tech), d.sh_cap_f(tech));
}

TEST(EffectiveMatrix, UnityRetentionIsUniform) {
  const auto phi = cs::SparseBinaryMatrix::generate(8, 32, 2, 4);
  const auto w = cs::effective_matrix(phi, 0.125, 1.0);  // active: b = 1
  const auto dense = phi.to_dense();
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_DOUBLE_EQ(w(i, j), dense(i, j) * 0.125);
    }
  }
}

TEST(ActiveEncoder, IdealAccumulationMatchesPhi) {
  const TechnologyParams tech;
  auto d = cs_design(CsStyle::ActiveIntegrator, 32);
  d.cs_n_phi = 64;
  auto phi = cs::SparseBinaryMatrix::generate(32, 64, 2, 9);
  blocks::ActiveCsEncoderOptions opts;
  opts.enable_mismatch = false;
  opts.enable_noise = false;
  blocks::ActiveCsEncoderBlock enc("enc", tech, d, phi, 1, 2, opts);

  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(0.21 * i);
  const sim::Waveform in(d.f_sample_hz(), x);
  const auto out = enc.process({in})[0];

  const double a = d.cs_c_sample_f / d.cs_c_int_f;
  const auto y = phi.apply(x);
  ASSERT_EQ(out.size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(out[i], a * y[i], 1e-12);
  }
}

TEST(ActiveEncoder, NoiseAndMismatchPerturb) {
  const TechnologyParams tech;
  auto d = cs_design(CsStyle::ActiveIntegrator, 32);
  d.cs_n_phi = 64;
  auto phi = cs::SparseBinaryMatrix::generate(32, 64, 2, 9);
  blocks::ActiveCsEncoderOptions ideal;
  ideal.enable_mismatch = false;
  ideal.enable_noise = false;
  blocks::ActiveCsEncoderBlock a("a", tech, d, phi, 1, 2, ideal);
  blocks::ActiveCsEncoderBlock b("b", tech, d, phi, 1, 2, {});
  const sim::Waveform in(d.f_sample_hz(), std::vector<double>(64, 0.3));
  const auto ya = a.process({in})[0];
  const auto yb = b.process({in})[0];
  EXPECT_NE(ya.samples, yb.samples);
}

TEST(ActiveEncoder, RejectsWrongStyle) {
  const TechnologyParams tech;
  auto d = cs_design(CsStyle::PassiveCharge, 32);
  d.cs_n_phi = 64;
  auto phi = cs::SparseBinaryMatrix::generate(32, 64, 2, 9);
  EXPECT_THROW(blocks::ActiveCsEncoderBlock("enc", tech, d, phi, 1, 2), Error);
}

TEST(DigitalEncoder, ExactBinarySums) {
  const TechnologyParams tech;
  auto d = cs_design(CsStyle::DigitalMac, 32);
  d.cs_n_phi = 64;
  auto phi = cs::SparseBinaryMatrix::generate(32, 64, 2, 9);
  blocks::DigitalCsEncoderBlock enc("enc", tech, d, phi);
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * static_cast<double>(i);
  const sim::Waveform in(d.f_sample_hz(), x);
  const auto out = enc.process({in})[0];
  const auto y = phi.apply(x);
  ASSERT_EQ(out.size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_DOUBLE_EQ(out[i], y[i]);
  EXPECT_DOUBLE_EQ(out.fs, d.tx_sample_rate_hz());
}

TEST(Chains, StyleDispatchAndStructure) {
  const TechnologyParams tech;
  for (auto style : {CsStyle::PassiveCharge, CsStyle::ActiveIntegrator,
                     CsStyle::DigitalMac}) {
    const auto d = cs_design(style);
    const auto chain = arch::build_chain(tech, d, {});
    EXPECT_TRUE(chain->has_block(arch::kCsEncoderBlock));
    // Only the digital style keeps the classical S&H front half.
    EXPECT_EQ(chain->has_block(arch::kSampleHoldBlock),
              style == CsStyle::DigitalMac);
  }
  // Style-specific builders reject mismatched designs.
  EXPECT_THROW(
      arch::build_active_cs_chain(tech, cs_design(CsStyle::PassiveCharge), {}),
      Error);
  EXPECT_THROW(
      arch::build_digital_cs_chain(tech, cs_design(CsStyle::ActiveIntegrator), {}),
      Error);
  EXPECT_THROW(
      arch::build_cs_chain(tech, cs_design(CsStyle::DigitalMac), {}), Error);
}

TEST(Chains, EndToEndReconstructionAllStyles) {
  const TechnologyParams tech;
  // A band-limited multi-tone "biosignal" at sensor scale.
  const double fs = 2048.0;
  std::vector<double> x(static_cast<std::size_t>(fs) * 4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 1e-4 * (std::sin(2.0 * std::numbers::pi * 4.0 * t) +
                   0.5 * std::sin(2.0 * std::numbers::pi * 11.0 * t));
  }
  const sim::Waveform input(fs, x);

  for (auto style : {CsStyle::PassiveCharge, CsStyle::ActiveIntegrator,
                     CsStyle::DigitalMac}) {
    auto d = cs_design(style);
    d.lna_noise_vrms = 2e-6;
    d.cs_c_hold_f = 1e-12;
    auto chain = arch::build_chain(tech, d, {});
    cs::ReconstructorConfig rc;
    rc.residual_tol = 0.01;
    const auto recon = arch::make_matched_reconstructor(d, {}, rc);
    const auto out = arch::run_chain(*chain, input);
    const auto rec = recon.reconstruct_stream(out.samples);
    ASSERT_FALSE(rec.empty());
    const auto times = dsp::uniform_times(rec.size(), d.f_sample_hz());
    const auto ref = dsp::sample_at_times(x, fs, times);
    const double snr = dsp::snr_vs_reference_db(ref, rec);
    EXPECT_GT(snr, 10.0) << "style " << static_cast<int>(style);
  }
}

TEST(DesignSpaceAxes, CsStyleAndCintMapped) {
  DesignParams d;
  core::apply_axis(d, "cs_style", 1);
  EXPECT_EQ(d.cs_style, CsStyle::ActiveIntegrator);
  core::apply_axis(d, "cs_c_int_f", 2e-12);
  EXPECT_DOUBLE_EQ(d.cs_c_int_f, 2e-12);
  EXPECT_THROW(core::apply_axis(d, "cs_style", 5), Error);
}

TEST(Transmitter, CountsWiderDigitalWords) {
  const TechnologyParams tech;
  const auto d = cs_design(CsStyle::DigitalMac, 96);
  blocks::TransmitterBlock tx("tx", tech, d, 1);
  const sim::Waveform w(d.tx_sample_rate_hz(), std::vector<double>(100, 0.5));
  tx.process({w});
  EXPECT_EQ(tx.last_bits_sent(), 100u * 12u);
  // BER injection is incompatible with widened words.
  EXPECT_THROW(blocks::TransmitterBlock("tx2", tech, d, 1, 0.01), Error);
}
