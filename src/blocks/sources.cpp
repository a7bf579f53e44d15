#include "blocks/sources.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sim/arena.hpp"
#include "util/error.hpp"

namespace efficsense::blocks {

WaveformSource::WaveformSource(std::string name)
    : sim::Block(std::move(name), 0, 1) {}

WaveformSource::WaveformSource(std::string name, sim::Waveform initial)
    : sim::Block(std::move(name), 0, 1), waveform_(std::move(initial)) {}

void WaveformSource::set_waveform(sim::Waveform w) { waveform_ = std::move(w); }

void WaveformSource::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  EFF_REQUIRE(inputs.empty(), "source takes no inputs");
  EFF_REQUIRE(!waveform_.empty(), "WaveformSource has no waveform set");
  // Copy into an arena buffer so repeated runs reuse the same capacity.
  sim::LaneBank bank = sim::LaneBank::acquire(
      arena, waveform_.fs, lanes, waveform_.size(), /*uniform=*/true);
  std::copy(waveform_.samples.begin(), waveform_.samples.end(),
            bank.lane(0));
  outputs.push_back(std::move(bank));
}

SineSource::SineSource(std::string name, double fs, double duration_s,
                       double freq_hz, double amplitude, double offset,
                       double phase_rad)
    : sim::Block(std::move(name), 0, 1),
      fs_(fs),
      duration_s_(duration_s),
      freq_hz_(freq_hz),
      amplitude_(amplitude),
      offset_(offset),
      phase_rad_(phase_rad) {
  EFF_REQUIRE(fs > 0.0 && duration_s > 0.0, "fs and duration must be positive");
  EFF_REQUIRE(freq_hz > 0.0 && freq_hz < fs / 2.0,
              "tone must lie below Nyquist");
  params().set("fs", fs);
  params().set("freq_hz", freq_hz);
  params().set("amplitude", amplitude);
}

void SineSource::process_batch(std::size_t lanes,
                               const std::vector<const sim::LaneBank*>& inputs,
                               std::vector<sim::LaneBank>& outputs,
                               sim::WaveformArena& arena) {
  EFF_REQUIRE(inputs.empty(), "source takes no inputs");
  const auto n = static_cast<std::size_t>(fs_ * duration_s_);
  sim::LaneBank bank =
      sim::LaneBank::acquire(arena, fs_, lanes, n, /*uniform=*/true);
  double* out = bank.lane(0);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / fs_;
    out[k] = offset_ + amplitude_ * std::sin(2.0 * std::numbers::pi *
                                                 freq_hz_ * t +
                                             phase_rad_);
  }
  outputs.push_back(std::move(bank));
}

}  // namespace efficsense::blocks
