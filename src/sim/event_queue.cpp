#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/check.h"

namespace arpanet::sim {

EventQueue::EventQueue() : buckets_(kMinBuckets, kNil) {}

void EventQueue::reserve(std::size_t events) {
  // Capacity only: the live geometry (bucket count, day width) is untouched,
  // so ordering semantics and resize() accounting stay exactly as they were.
  const std::size_t nb = std::bit_ceil(
      std::clamp<std::size_t>(events, kMinBuckets, kMaxBuckets));
  buckets_.reserve(nb);
  scratch_.reserve(events);
  drain_.reserve(events);
  overflow_.reserve(events);
  slots_.reserve(events);
  meta_.reserve(events);
  free_.reserve(events);
}

// ARPALINT-HOTPATH-BEGIN
void EventQueue::schedule(util::SimTime at, SimEvent ev, std::uint64_t key) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = ev;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    slots_.push_back(ev);
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    meta_.emplace_back();
  }
  meta_[slot].at_us = at.us();
  meta_[slot].key = key != 0 ? key : next_unkeyed_++;

  if (size_ == 0) {
    // Empty queue: re-anchor the window so the first event's day is the
    // base — keeps the bucket scan from walking dead days after idle gaps.
    base_day_ = day_of(at.us());
    drain_active_ = false;
  }
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;

  insert_entry(slot, /*count_overflow=*/true);

  // Density drifted: the population outgrew the array (mean bucket depth
  // above 2) or far-future events dominate. Both re-derive the geometry.
  if (size_ > 2 * buckets_.size() ||
      (overflow_.size() > kOverflowTrigger &&
       2 * overflow_.size() > size_)) {
    resize();
  }
}

void EventQueue::insert_entry(std::uint32_t slot, bool count_overflow) {
  const std::int64_t at_us = meta_[slot].at_us;
  std::int64_t day = day_of(at_us);
  // An event can be scheduled for a day the window base has already passed
  // (its time is still >= the last pop, per the class contract); clamping
  // to the base day files it where the next scan looks, and the drain sort
  // restores the exact (time, key) order.
  if (day < base_day_) day = base_day_;

  if (drain_active_ && day == base_day_) {
    // The day being drained keeps its entries sorted; merge in place.
    const Entry e{at_us, meta_[slot].key, slot};
    // ARPALINT-ALLOW(hot-path-alloc): drain vector retains capacity across days
    drain_.insert(std::lower_bound(drain_.begin(), drain_.end(), e, later),
                  e);
    return;
  }
  if (day < base_day_ + static_cast<std::int64_t>(buckets_.size())) {
    std::uint32_t& head = buckets_[static_cast<std::size_t>(day) & mask_];
    meta_[slot].next = head;
    head = slot;
    ++bucketed_;
    return;
  }
  const Entry e{at_us, meta_[slot].key, slot};
  // ARPALINT-ALLOW(hot-path-alloc): overflow vector retains capacity
  overflow_.insert(
      std::lower_bound(overflow_.begin(), overflow_.end(), e, later), e);
  if (count_overflow) ++overflow_scheduled_;
}

void EventQueue::migrate_overflow() {
  const std::int64_t limit =
      base_day_ + static_cast<std::int64_t>(buckets_.size());
  while (!overflow_.empty() && day_of(overflow_.back().at_us) < limit) {
    const Entry e = overflow_.back();
    overflow_.pop_back();
    std::uint32_t& head =
        buckets_[static_cast<std::size_t>(day_of(e.at_us)) & mask_];
    meta_[e.slot].next = head;
    head = e.slot;
    ++bucketed_;
  }
}

void EventQueue::prepare() {
  if (!drain_.empty()) return;
  drain_active_ = false;
  if (bucketed_ == 0) {
    // Everything pending sits beyond the window; jump the base to the
    // earliest far-future day rather than scanning empty buckets.
    ARPA_DCHECK(!overflow_.empty());
    base_day_ = day_of(overflow_.back().at_us);
  }
  migrate_overflow();
  ARPA_DCHECK(bucketed_ > 0);
  std::int64_t d = base_day_;
  while (buckets_[static_cast<std::size_t>(d) & mask_] == kNil) ++d;
  base_day_ = d;
  std::uint32_t s = buckets_[static_cast<std::size_t>(d) & mask_];
  buckets_[static_cast<std::size_t>(d) & mask_] = kNil;
  while (s != kNil) {
    // ARPALINT-ALLOW(hot-path-alloc): drain vector retains capacity across days
    drain_.push_back(Entry{meta_[s].at_us, meta_[s].key, s});
    s = meta_[s].next;
    --bucketed_;
  }
  std::sort(drain_.begin(), drain_.end(), later);
  drain_active_ = true;
}

util::SimTime EventQueue::next_time() {
  ARPA_DCHECK(size_ > 0) << "next_time on an empty event queue";
  prepare();
  return util::SimTime::from_us(drain_.back().at_us);
}

SimEvent EventQueue::pop(util::SimTime& at) {
  ARPA_DCHECK(size_ > 0) << "pop from an empty event queue";
  prepare();
  const Entry e = drain_.back();
  drain_.pop_back();
  // The next pop's slab slot is already known (the new drain back); start
  // pulling its cache line while this event dispatches — freelist reuse
  // scatters consecutive pops across the slab, so they rarely share a line.
  if (!drain_.empty()) __builtin_prefetch(&slots_[drain_.back().slot]);
  at = util::SimTime::from_us(e.at_us);
  const SimEvent ev = slots_[e.slot];
  // ARPALINT-ALLOW(hot-path-alloc): freelist retains capacity
  free_.push_back(e.slot);
  --size_;
  if (size_ < buckets_.size() / 8 && buckets_.size() > kMinBuckets) {
    if (size_ == 0) {
      // Fully drained: fall back to the initial geometry for free instead
      // of running (and counting) a rebuild over nothing.
      // ARPALINT-ALLOW(hot-path-alloc): shrinking assign reuses storage
      buckets_.assign(kMinBuckets, kNil);
      mask_ = kMinBuckets - 1;
      shift_ = kDefaultShift;
      drain_.clear();
      drain_active_ = false;
    } else {
      resize();
    }
  }
  return ev;
}
// ARPALINT-HOTPATH-END

void EventQueue::resize() {
  // Collect every pending slot; the events themselves never move, only the
  // index structures are rebuilt around them.
  scratch_.clear();
  for (std::uint32_t& head : buckets_) {
    std::uint32_t s = head;
    head = kNil;
    while (s != kNil) {
      scratch_.push_back(s);
      s = meta_[s].next;
    }
  }
  for (const Entry& e : drain_) scratch_.push_back(e.slot);
  for (const Entry& e : overflow_) scratch_.push_back(e.slot);
  drain_.clear();
  drain_active_ = false;
  overflow_.clear();
  bucketed_ = 0;
  ++resizes_;
  ARPA_DCHECK(scratch_.size() == size_);
  if (scratch_.empty()) return;

  std::int64_t min_at = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_at = std::numeric_limits<std::int64_t>::min();
  for (const std::uint32_t slot : scratch_) {
    min_at = std::min(min_at, meta_[slot].at_us);
    max_at = std::max(max_at, meta_[slot].at_us);
  }

  // Day width ≈ horizon / population, rounded down to a power of two, so
  // the mean bucket holds one or two events and the drain sort stays tiny.
  const auto n = static_cast<std::uint64_t>(scratch_.size());
  const auto horizon = static_cast<std::uint64_t>(max_at - min_at) + 1;
  const std::uint64_t width = std::max<std::uint64_t>(horizon / n, 1);
  shift_ = std::min(static_cast<int>(std::bit_width(width)) - 1, kMaxShift);

  const std::size_t nb = std::bit_ceil(
      std::clamp<std::size_t>(scratch_.size(), kMinBuckets, kMaxBuckets));
  buckets_.assign(nb, kNil);
  mask_ = nb - 1;
  base_day_ = day_of(min_at);
  for (const std::uint32_t slot : scratch_) {
    insert_entry(slot, /*count_overflow=*/false);
  }
}

}  // namespace arpanet::sim
