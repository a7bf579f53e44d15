#include "blocks/lc_adc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/resample.hpp"
#include "power/models.hpp"
#include "util/error.hpp"

namespace efficsense::blocks {

LcAdcBlock::LcAdcBlock(std::string name, const power::TechnologyParams& tech,
                       const power::DesignParams& design, LcAdcConfig config)
    : sim::Block(std::move(name), 1, 1),
      tech_(tech),
      design_(design),
      config_(config) {
  design_.validate();
  EFF_REQUIRE(config_.levels_bits >= 2 && config_.levels_bits <= 16,
              "LC-ADC resolution out of range");
  EFF_REQUIRE(config_.timer_bits >= 2 && config_.timer_bits <= 32,
              "timer resolution out of range");
  if (config_.timer_clock_hz <= 0.0) {
    config_.timer_clock_hz = design_.f_clk_hz();
  }
  params().set("levels_bits", config_.levels_bits);
  params().set("timer_bits", config_.timer_bits);
  params().set("timer_clock_hz", config_.timer_clock_hz);
}

std::vector<sim::Waveform> LcAdcBlock::process(
    const std::vector<sim::Waveform>& in) {
  const sim::Waveform& x = in.at(0);
  EFF_REQUIRE(!x.empty(), "LC-ADC input is empty");

  const double lsb = design_.v_fs / std::pow(2.0, config_.levels_bits);
  const double half_fs = design_.v_fs / 2.0;

  // Track crossings sample by sample on the quasi-continuous input; each
  // event stores (time quantized by the timer clock, level).
  std::vector<double> event_t;
  std::vector<double> event_v;
  event_t.reserve(1024);
  event_v.reserve(1024);

  double level = std::clamp(std::round(x[0] / lsb) * lsb, -half_fs, half_fs);
  event_t.push_back(0.0);
  event_v.push_back(level);

  const double timer_tick = 1.0 / config_.timer_clock_hz;
  for (std::size_t i = 1; i < x.size(); ++i) {
    // Several levels can be crossed within one simulation step if the
    // signal moves fast; emit them in order.
    while (x[i] >= level + lsb && level + lsb <= half_fs) {
      level += lsb;
      const double t = static_cast<double>(i) / x.fs;
      event_t.push_back(std::round(t / timer_tick) * timer_tick);
      event_v.push_back(level);
    }
    while (x[i] <= level - lsb && level - lsb >= -half_fs) {
      level -= lsb;
      const double t = static_cast<double>(i) / x.fs;
      event_t.push_back(std::round(t / timer_tick) * timer_tick);
      event_v.push_back(level);
    }
  }
  events_ = event_t.size() - 1;  // the initial level is not an event
  duration_s_ = x.duration_s();

  // Receiver-side reconstruction: linear interpolation between events,
  // evaluated on the uniform f_sample grid.
  const double f_sample = design_.f_sample_hz();
  const auto n_out =
      static_cast<std::size_t>(std::floor(duration_s_ * f_sample));
  sim::Waveform out;
  out.fs = f_sample;
  out.samples.resize(n_out);
  std::size_t seg = 0;
  for (std::size_t k = 0; k < n_out; ++k) {
    const double t = static_cast<double>(k) / f_sample;
    while (seg + 1 < event_t.size() && event_t[seg + 1] <= t) ++seg;
    if (seg + 1 >= event_t.size()) {
      out.samples[k] = event_v.back();
    } else {
      const double t0 = event_t[seg], t1 = event_t[seg + 1];
      const double frac = (t1 > t0) ? (t - t0) / (t1 - t0) : 0.0;
      out.samples[k] =
          event_v[seg] + frac * (event_v[seg + 1] - event_v[seg]);
    }
  }
  return {std::move(out)};
}

void LcAdcBlock::reset() {
  Block::reset();
  events_ = 0;
  duration_s_ = 0.0;
}

double LcAdcBlock::last_event_rate_hz() const {
  return duration_s_ > 0.0 ? static_cast<double>(events_) / duration_s_ : 0.0;
}

double LcAdcBlock::power_watts() const {
  // Two continuously biased tracking comparators.
  const double gbw = config_.comparator_gbw_factor * design_.bw_lna_hz();
  const double i_cmp = gbw * 2.0 * std::numbers::pi *
                       design_.comparator_cload_f / tech_.gm_over_id;
  double p = 2.0 * design_.vdd * i_cmp;

  const double rate = last_event_rate_hz();
  if (rate > 0.0) {
    // Level-DAC switching at the event rate (the SAR DAC closed form [15],
    // evaluated at an equivalent clock of (N+1) * event_rate).
    p += power::dac_power_w(config_.levels_bits,
                            (config_.levels_bits + 1) * rate,
                            design_.dac_c_unit_f, design_.v_ref,
                            design_.v_fs / 4.0);
    // Event logic (level register + timer latch), SAR-logic form [17].
    p += 0.4 * (2.0 * config_.levels_bits + 1.0) * tech_.c_logic_f *
         design_.vdd * design_.vdd * rate;
  }
  // The free-running event timer.
  p += 0.4 * config_.timer_bits * tech_.c_logic_f * design_.vdd * design_.vdd *
       config_.timer_clock_hz;
  return p;
}

double LcAdcBlock::tx_power_watts() const {
  return bit_rate() * tech_.e_bit_j;
}

double LcAdcBlock::area_unit_caps() const {
  // The level DAC reuses a binary capacitor array.
  return std::pow(2.0, config_.levels_bits) *
         std::max(design_.dac_c_unit_f, tech_.c_u_min_f) / tech_.c_u_min_f;
}

}  // namespace efficsense::blocks
