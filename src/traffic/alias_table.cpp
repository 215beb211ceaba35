#include "src/traffic/alias_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace arpanet::traffic {

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("alias table needs 1..2^32-1 outcomes");
  }
  double sum = 0.0;
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument("alias weights must be finite and >= 0");
    }
    sum += w;
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    throw std::invalid_argument("alias weights must have a positive sum");
  }

  // Vose: scale to mean 1, then pair each under-full slot with an over-full
  // outcome that tops it up. Zero weights go on the small stack last, so
  // they are paired first, while over-full partners are certain to remain.
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  std::vector<std::uint32_t> zeros;
  for (std::uint32_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / sum;
    if (weights[i] == 0.0) {
      zeros.push_back(i);
    } else if (scaled[i] < 1.0) {
      small.push_back(i);
    } else {
      large.push_back(i);
    }
  }
  small.insert(small.end(), zeros.begin(), zeros.end());

  slots_.resize(n);
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    slots_[s] = Slot{scaled[s], l};
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Whatever is left is full up to rounding: it keeps its whole slot. A
  // zero-weight leftover (possible only through rounding) must still never
  // be drawn, so it hands its slot to the heaviest outcome instead.
  const auto heaviest = static_cast<std::uint32_t>(
      std::max_element(weights.begin(), weights.end()) - weights.begin());
  for (const std::vector<std::uint32_t>* rest : {&small, &large}) {
    for (const std::uint32_t i : *rest) {
      slots_[i] = weights[i] == 0.0 ? Slot{0.0, heaviest} : Slot{1.0, i};
    }
  }
}

double AliasTable::probability(std::uint32_t outcome) const {
  double mass = slots_.at(outcome).keep;
  for (const Slot& s : slots_) {
    if (s.alias == outcome) mass += 1.0 - s.keep;
  }
  return mass / static_cast<double>(slots_.size());
}

}  // namespace arpanet::traffic
