// Simulation driver: the virtual clock plus the event queue.

#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/event.h"
#include "src/sim/event_queue.h"
#include "src/util/units.h"

namespace arpanet::sim {

class Simulator {
 public:
  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Schedules a typed event at an absolute time (must not be in the past).
  /// `key` orders it among simultaneous events (sim/event_queue.h,
  /// event_key); 0 leaves it unkeyed.
  void schedule_at(util::SimTime at, SimEvent ev, std::uint64_t key = 0);
  /// Schedules a typed event `delay` from now.
  void schedule_in(util::SimTime delay, SimEvent ev, std::uint64_t key = 0) {
    schedule_at(now_ + delay, ev, key);
  }

  /// Runs events until the queue is empty or the next event is later than
  /// `end`; the clock is left at `end`.
  void run_until(util::SimTime end);

  /// Executes a single event if one exists. Returns false on empty queue.
  bool step();

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }
  /// Pre-sizes the calendar queue for up to `events` pending events; see
  /// EventQueue::reserve.
  void reserve_events(std::size_t events) { queue_.reserve(events); }
  /// High-water mark of the pending-event count (telemetry).
  [[nodiscard]] std::size_t queue_peak_depth() const {
    return queue_.peak_size();
  }
  /// Event-slab slots ever allocated by the calendar queue (telemetry).
  [[nodiscard]] std::size_t queue_slab_slots() const {
    return queue_.slab_slots();
  }
  /// Calendar bucket-array rebuilds over the run (telemetry).
  [[nodiscard]] std::uint64_t queue_resizes() const {
    return queue_.resizes();
  }
  /// Events scheduled beyond the calendar window (telemetry).
  [[nodiscard]] std::uint64_t queue_overflow_scheduled() const {
    return queue_.overflow_scheduled();
  }

 private:
  EventQueue queue_;
  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t processed_ = 0;
};

}  // namespace arpanet::sim
