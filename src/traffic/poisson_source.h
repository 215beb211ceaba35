// Poisson packet arrival sampling.
//
// Offered traffic is Poisson with shifted-exponential packet sizes, matching
// the M/M/1 assumptions of the HNM's delay-to-utilization conversion (mean
// 600 bits network-wide). sim::Network runs one aggregate process per PSN
// at its matrix row's total rate: a superposition of independent Poisson
// streams is itself Poisson at the summed rate, with each arrival's
// destination drawn in proportion to the per-destination rates
// (traffic/alias_table.h), so one source per node offers exactly the
// traffic of one source per (source, destination) pair, in distribution.
// Both samplers here are stateless; the caller owns the random stream.

#pragma once

#include "src/util/rng.h"
#include "src/util/units.h"

namespace arpanet::traffic {

/// Interarrival-gap sampler for a Poisson process.
class PoissonProcess {
 public:
  explicit PoissonProcess(double rate_per_sec);

  [[nodiscard]] double rate_per_sec() const { return rate_; }
  /// Next exponential interarrival gap, drawn from `rng`.
  [[nodiscard]] util::SimTime next_gap(util::Rng& rng) const;

 private:
  double rate_;
};

/// Packet sizes: floor + exponential tail, with the configured overall mean.
/// The floor models minimum header size; with the 600-bit default mean and
/// 32-bit floor the tail mean is 568 bits.
class PacketSizer {
 public:
  explicit PacketSizer(double mean_bits, double floor_bits = 32.0);

  [[nodiscard]] double sample(util::Rng& rng) const;
  [[nodiscard]] double mean_bits() const { return mean_; }

 private:
  double mean_;
  double floor_;
};

}  // namespace arpanet::traffic
