// Walker alias table: constant-time draws from a fixed discrete distribution.
//
// A traffic source that aggregates a whole matrix row (sim::Network keeps
// one per PSN) draws each packet's destination in proportion to the row's
// per-destination rates. Walker's method (Vose's numerically stable
// construction) splits the n outcomes' probability mass into n equal slots,
// each holding at most two outcomes — the slot's own, kept with
// probability `keep`, and one alias taking the rest — so a draw is one
// uniform variate and one comparison, whatever the row's length or skew.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"

namespace arpanet::traffic {

class AliasTable {
 public:
  /// Builds the table for outcomes 0..weights.size()-1, drawn in proportion
  /// to `weights`. Weights must be finite and non-negative with a positive
  /// sum (std::invalid_argument otherwise); a zero-weight outcome is never
  /// drawn.
  explicit AliasTable(std::span<const double> weights);

  /// One draw; consumes exactly one uniform variate from `rng`.
  [[nodiscard]] std::uint32_t sample(util::Rng& rng) const {
    const double u = rng.uniform() * static_cast<double>(slots_.size());
    auto i = static_cast<std::uint32_t>(u);
    if (i >= slots_.size()) i = static_cast<std::uint32_t>(slots_.size() - 1);
    const Slot& s = slots_[i];
    return u - static_cast<double>(i) < s.keep ? i : s.alias;
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// The probability the table assigns to `outcome`, reassembled from the
  /// slots (its own slot's keep share plus every slot aliasing to it).
  /// O(n); for tests and diagnostics.
  [[nodiscard]] double probability(std::uint32_t outcome) const;

 private:
  struct Slot {
    double keep = 1.0;        ///< chance a draw landing here keeps its index
    std::uint32_t alias = 0;  ///< the outcome taking the remaining mass
  };
  std::vector<Slot> slots_;
};

}  // namespace arpanet::traffic
