#include "blocks/basic.hpp"

#include <algorithm>

#include "sim/arena.hpp"
#include "util/error.hpp"

namespace efficsense::blocks {

GainBlock::GainBlock(std::string name, double gain)
    : sim::Block(std::move(name), 1, 1), gain_(gain) {
  params().set("gain", gain);
}

std::vector<sim::Waveform> GainBlock::process(
    const std::vector<sim::Waveform>& in) {
  sim::Waveform out = in.at(0);
  for (double& v : out.samples) v *= gain_;
  return {std::move(out)};
}

AdderBlock::AdderBlock(std::string name) : sim::Block(std::move(name), 2, 1) {}

std::vector<sim::Waveform> AdderBlock::process(
    const std::vector<sim::Waveform>& in) {
  const sim::Waveform& a = in.at(0);
  const sim::Waveform& b = in.at(1);
  EFF_REQUIRE(a.fs == b.fs, "adder inputs must share a sample rate");
  sim::Waveform out;
  out.fs = a.fs;
  const std::size_t n = std::min(a.size(), b.size());
  out.samples.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.samples[i] = a[i] + b[i];
  return {std::move(out)};
}

ClipBlock::ClipBlock(std::string name, double lo, double hi)
    : sim::Block(std::move(name), 1, 1), lo_(lo), hi_(hi) {
  EFF_REQUIRE(lo < hi, "clip bounds must satisfy lo < hi");
  params().set("lo", lo);
  params().set("hi", hi);
}

std::vector<sim::Waveform> ClipBlock::process(
    const std::vector<sim::Waveform>& in) {
  sim::Waveform out = in.at(0);
  for (double& v : out.samples) v = std::clamp(v, lo_, hi_);
  return {std::move(out)};
}

NoiseAdderBlock::NoiseAdderBlock(std::string name, double sigma,
                                 std::uint64_t seed)
    : sim::Block(std::move(name), 1, 1), sigma_(sigma), seed_(seed) {
  EFF_REQUIRE(sigma >= 0.0, "noise sigma must be non-negative");
  params().set("sigma", sigma);
}

void NoiseAdderBlock::process_batch(
    std::size_t lanes, const std::vector<const sim::LaneBank*>& inputs,
    std::vector<sim::LaneBank>& outputs, sim::WaveformArena& arena) {
  const sim::LaneBank& x = *inputs.at(0);
  const bool shared = lane_noise_seeds_.empty();
  EFF_REQUIRE(shared || lane_noise_seeds_.size() == lanes,
              "noise-adder lane seed count does not match the batch width");
  const std::size_t n = x.samples();
  // A shared stream over a uniform input yields one row for every lane.
  sim::LaneBank bank = sim::LaneBank::acquire(arena, x.fs(), lanes, n,
                                              shared && x.uniform());
  std::vector<double> noise = arena.acquire(n);
  for (std::size_t k = 0; k < bank.rows(); ++k) {
    const double* xr = x.lane(k);
    double* o = bank.lane(k);
    if (sigma_ > 0.0) {
      Rng rng(derive_seed(shared ? seed_ : lane_noise_seeds_[k], run_index()));
      rng.fill_gaussian(noise.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        o[i] = xr[i] + sigma_ * noise[i];
      }
    } else {
      std::copy(xr, xr + n, o);
    }
  }
  arena.release(std::move(noise));
  outputs.push_back(std::move(bank));
}

CubicNonlinearityBlock::CubicNonlinearityBlock(std::string name, double k3)
    : sim::Block(std::move(name), 1, 1), k3_(k3) {
  params().set("k3", k3);
}

std::vector<sim::Waveform> CubicNonlinearityBlock::process(
    const std::vector<sim::Waveform>& in) {
  sim::Waveform out = in.at(0);
  for (double& v : out.samples) v = v - k3_ * v * v * v;
  return {std::move(out)};
}

}  // namespace efficsense::blocks
