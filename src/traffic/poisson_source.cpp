#include "src/traffic/poisson_source.h"

#include <stdexcept>

namespace arpanet::traffic {

PoissonProcess::PoissonProcess(double rate_per_sec) : rate_{rate_per_sec} {
  if (!(rate_per_sec > 0.0)) throw std::invalid_argument("rate must be positive");
}

util::SimTime PoissonProcess::next_gap(util::Rng& rng) const {
  return util::SimTime::from_sec(rng.exponential(1.0 / rate_));
}

PacketSizer::PacketSizer(double mean_bits, double floor_bits)
    : mean_{mean_bits}, floor_{floor_bits} {
  if (!(mean_bits > floor_bits) || floor_bits < 0.0) {
    throw std::invalid_argument("packet size mean must exceed floor");
  }
}

double PacketSizer::sample(util::Rng& rng) const {
  return floor_ + rng.exponential(mean_ - floor_);
}

}  // namespace arpanet::traffic
