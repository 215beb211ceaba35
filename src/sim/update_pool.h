// Pooled routing-update storage.
//
// Flooding one link-state update used to allocate a shared_ptr control
// block plus a reports vector per origination, and every measurement period
// with a significant change paid that cost inside the measurement window —
// the one steady-state allocation left after the packet slab and the
// calendar queue went allocation-free. The pool replaces the shared_ptr
// with a slab of refcounted RoutingUpdate slots: flooded packet copies
// share one slot through a 4-byte UpdateHandle, and when the last copy is
// consumed the slot returns to a freelist with its reports vector's
// capacity intact, so a recycled origination writes into existing storage.
//
// Slots live in a deque so growth never relocates an update a flooded
// packet still references. Like sim::PacketPool the pool is owned by one
// sim::Network and is strictly single-threaded (sweep parallelism is
// across Networks, never within one), so the refcounts are plain integers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/routing/flooding.h"
#include "src/sim/packet.h"
#include "src/util/check.h"

namespace arpanet::sim {

class UpdatePool {
 public:
  // ARPALINT-HOTPATH-BEGIN
  /// Acquires a slot with refcount 1. The slot's reports vector is empty
  /// but keeps whatever capacity its previous occupant grew.
  [[nodiscard]] UpdateHandle acquire() {
    ++acquired_;
    if (!free_.empty()) {
      ++recycled_;
      const UpdateHandle h = free_.back();
      free_.pop_back();
      slots_[h].refs = 1;
      ++in_use_;
      return h;
    }
    const UpdateHandle h = static_cast<UpdateHandle>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    slots_.emplace_back();
    // ARPALINT-ALLOW(hot-path-alloc): one-time reserve at slot creation
    slots_[h].update.reports.reserve(report_capacity_);
    slots_[h].refs = 1;
    ++in_use_;
    return h;
  }

  [[nodiscard]] routing::RoutingUpdate& at(UpdateHandle h) {
    return slots_[h].update;
  }
  [[nodiscard]] const routing::RoutingUpdate& at(UpdateHandle h) const {
    return slots_[h].update;
  }

  /// Another flooded copy now shares the slot.
  void add_ref(UpdateHandle h) {
    ARPA_DCHECK(slots_[h].refs > 0) << "add_ref on a parked update slot";
    ++slots_[h].refs;
  }

  /// Drops one reference; the last drop parks the slot on the freelist with
  /// its reports storage retained (clear(), not shrink).
  void release(UpdateHandle h) {
    ARPA_DCHECK(h < slots_.size() && slots_[h].refs > 0)
        << "released update handle " << h << " with no live reference";
    if (--slots_[h].refs == 0) {
      slots_[h].update.origin = net::kInvalidNode;
      slots_[h].update.seq = 0;
      slots_[h].update.reports.clear();
      // ARPALINT-ALLOW(hot-path-alloc): freelist retains capacity
      free_.push_back(h);
      --in_use_;
    }
  }
  // ARPALINT-HOTPATH-END

  /// Sets the reports capacity every slot is created with. Without a floor
  /// a slot first used by a low-degree origin and later recycled by a
  /// high-degree one regrows its vector mid-measurement; sim::Network sets
  /// the topology's maximum out-degree so a slot fits any origin from birth.
  void set_report_capacity(std::size_t n) {
    report_capacity_ = n;
    for (Slot& s : slots_) s.update.reports.reserve(n);
  }

  /// Grows the pool to at least `n` slots, each created with the reports
  /// capacity and parked on the freelist, so a later burst of up to `n`
  /// updates in flight acquires without allocating.
  void reserve(std::size_t n) {
    free_.reserve(n);
    while (slots_.size() < n) {
      const auto h = static_cast<UpdateHandle>(slots_.size());
      slots_.emplace_back();
      slots_[h].update.reports.reserve(report_capacity_);
      free_.push_back(h);
    }
  }

  /// Distinct slots ever created (the pool's footprint).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Slots currently referenced by at least one packet or originator.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// Total acquire() calls.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// acquire() calls served from the freelist rather than new storage.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }

 private:
  struct Slot {
    routing::RoutingUpdate update;
    std::uint32_t refs = 0;
  };

  std::deque<Slot> slots_;
  std::vector<UpdateHandle> free_;
  std::size_t report_capacity_ = 0;
  std::size_t in_use_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace arpanet::sim
