// Discrete-event queue.
//
// A calendar queue (Brown 1988): pending events hang off an array of
// power-of-two-width "day" buckets covering a sliding window of virtual
// time, with a sorted overflow list for events beyond the window. Scheduling
// links the event into its day's bucket in O(1); dequeueing drains one day
// at a time, sorting that day's handful of entries by (time, tie key) —
// amortized O(1) per event for the near-future-clustered distributions a
// queueing-network simulation produces, where the old binary heap paid an
// O(log n) sift on every operation at depths in the thousands.
//
// Simultaneous events pop in ascending tie key. The simulator's own events
// carry a key that names their owner and the owner's schedule count
// (event_key below: a PSN's id, or the fault engine's reserved owner), so
// the order of same-microsecond events depends only on which node scheduled
// them and how many events that node had scheduled before — never on the
// interleaving of other nodes' work. That is what makes a sharded run
// (sim/shard.h) pop every node's events in exactly the single-shard order.
// Unkeyed events (tests, microbenchmarks) get the next value of the queue's
// own FIFO counter, which stays below every keyed value: among themselves
// they pop in scheduling order, ahead of keyed events at the same time. The
// drain sort recovers the exact (time, key) total order, so runs are
// bit-reproducible for a given seed.
//
// Events live in a recycled slab (contiguous vector + freelist, like
// sim/packet_pool.h); buckets are intrusive singly-linked lists threaded
// through per-slot metadata, so a resize — triggered when the population
// outgrows or collapses below the bucket array, or when the overflow list
// gets deep — relinks slot indices without moving a single SimEvent. The
// bucket width is re-derived from the observed horizon (max − min pending
// time) so that the mean bucket holds O(1) events. Scheduling an event
// performs no allocation once the slab and bucket array have reached their
// high-water capacity.
//
// Contract: schedule() times must be >= the last popped time (the Simulator
// enforces this — its clock never runs backwards). The window's base day
// advances monotonically as days drain; an event scheduled into the current
// day merges into the day's sorted drain list, still in exact order.

#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/event.h"
#include "src/util/units.h"

namespace arpanet::sim {

/// Bits of a tie key below the owner field: the owner's schedule count.
inline constexpr int kEventKeyOwnerShift = 40;
/// The owner field value reserved for fault actions (their count field is
/// the compiled action index); PSN owners are node id + 1, below it.
inline constexpr std::uint64_t kFaultEventOwner =
    (std::uint64_t{1} << (64 - kEventKeyOwnerShift)) - 1;

/// The tie key of an owner's `count`-th scheduled event. Owner 0 is never
/// used, so every keyed event orders after every unkeyed one.
[[nodiscard]] constexpr std::uint64_t event_key(std::uint64_t owner,
                                                std::uint64_t count) {
  return (owner << kEventKeyOwnerShift) | count;
}

class EventQueue {
 public:
  EventQueue();

  /// Schedules `ev` at `at`; simultaneous events pop in ascending `key`
  /// (see event_key). key 0 means unkeyed: FIFO among the unkeyed.
  void schedule(util::SimTime at, SimEvent ev, std::uint64_t key = 0);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// High-water mark of size() over the queue's lifetime (telemetry).
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Pre-sizes every index structure (slab, freelist, bucket array, drain /
  /// overflow / relink staging) for a pending population of up to `events`,
  /// so growth past a power-of-two geometry boundary inside a
  /// zero-allocation window needs no heap. sim::run_scenario calls this
  /// with headroom over the warm-up peak before arming its AllocGuard.
  void reserve(std::size_t events);

  /// Earliest pending time. Precondition: !empty(). Not const: it readies
  /// the sorted drain list for the front day, which the following pop()
  /// reuses.
  [[nodiscard]] util::SimTime next_time();

  /// Pops and returns the earliest event. Precondition: !empty().
  [[nodiscard]] SimEvent pop(util::SimTime& at);

  // ---- telemetry (obs counters) ----
  /// Distinct slab slots ever allocated (high-water pending population).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }
  /// Bucket-array rebuilds (width/size re-derivations) over the lifetime.
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }
  /// Events that landed beyond the bucket window on schedule().
  [[nodiscard]] std::uint64_t overflow_scheduled() const {
    return overflow_scheduled_;
  }

 private:
  /// A (time, tie key) pair plus the slab slot it refers to; the element of
  /// the sorted drain and overflow lists.
  struct Entry {
    std::int64_t at_us = 0;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };

  /// Per-slot schedule key and intrusive bucket-list link.
  struct SlotMeta {
    std::int64_t at_us = 0;
    std::uint64_t key = 0;
    std::uint32_t next = 0;
  };

  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Initial day width: 2^10 us ≈ 1 ms, the order of a trunk's transmission
  /// and propagation delays. Resizes re-derive it from the live horizon.
  static constexpr int kDefaultShift = 10;
  static constexpr int kMaxShift = 40;  ///< day width cap (~13 days of sim time)
  /// Overflow depth that triggers a window re-derivation (when it also
  /// holds the majority of pending events).
  static constexpr std::size_t kOverflowTrigger = 64;

  /// Strict descending (time, key) order, so the back() of a sorted vector
  /// is the earliest entry and pops are pop_back().
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) {
    return a.at_us != b.at_us ? a.at_us > b.at_us : a.key > b.key;
  }

  [[nodiscard]] std::int64_t day_of(std::int64_t at_us) const {
    return at_us >> shift_;  // arithmetic shift, well-defined since C++20
  }

  /// Files one slot into the structure: the active drain day, a bucket, or
  /// the overflow list. `count_overflow` is false during resize relinks so
  /// the overflow_scheduled telemetry only counts real schedule() calls.
  void insert_entry(std::uint32_t slot, bool count_overflow);

  /// Moves overflow entries whose day now falls inside the window into
  /// their buckets (the overflow list is sorted, so this peels the back).
  void migrate_overflow();

  /// Ensures drain_ holds the front day's entries, sorted. Pre: size_ > 0.
  void prepare();

  /// Rebuilds the bucket array: re-derives the day width from the pending
  /// horizon, sizes the array to the population, and relinks every slot
  /// (indices only — no SimEvent moves).
  void resize();

  // Slab: the events themselves plus per-slot metadata and a freelist.
  std::vector<SimEvent> slots_;
  std::vector<SlotMeta> meta_;
  std::vector<std::uint32_t> free_;

  // Calendar: head slot index per bucket; day d maps to d & mask_ and the
  // window [base_day_, base_day_ + buckets_.size()) holds one day per
  // bucket, so no bucket ever mixes days.
  std::vector<std::uint32_t> buckets_;
  std::size_t mask_ = kMinBuckets - 1;
  int shift_ = kDefaultShift;
  std::int64_t base_day_ = 0;
  std::size_t bucketed_ = 0;  ///< events currently linked into buckets_

  // The front day, sorted descending; back() pops first. While a drain is
  // active, new events for base_day_ merge here instead of the bucket.
  std::vector<Entry> drain_;
  bool drain_active_ = false;

  /// Events beyond the window, sorted descending; back() migrates first.
  std::vector<Entry> overflow_;

  std::vector<std::uint32_t> scratch_;  ///< resize relink staging

  std::uint64_t next_unkeyed_ = 1;  ///< FIFO key of the next unkeyed event
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t resizes_ = 0;
  std::uint64_t overflow_scheduled_ = 0;
};

}  // namespace arpanet::sim
