#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace arpanet::sim {
namespace {

using util::SimTime;

/// Records every event dispatched to it: its index and, when bound to a
/// simulator, the clock at dispatch. While `reschedules` is positive it
/// schedules one more event `reschedule_delay` later from inside
/// handle_event, the way the simulator's own sinks chain their timers.
class TestSink final : public EventSink {
 public:
  TestSink() = default;
  explicit TestSink(Simulator& sim) : sim_{&sim} {}

  void handle_event(SimEvent& ev) override {
    indices.push_back(ev.index());
    if (sim_ == nullptr) return;
    fired_ms.push_back(sim_->now().ms());
    if (reschedules > 0) {
      --reschedules;
      sim_->schedule_in(reschedule_delay,
                        SimEvent::source_tick(*this, ev.index() + 1));
    }
  }

  std::vector<std::uint32_t> indices;
  std::vector<double> fired_ms;
  int reschedules = 0;
  SimTime reschedule_delay;

 private:
  Simulator* sim_ = nullptr;
};

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  TestSink sink;
  q.schedule(SimTime::from_ms(30), SimEvent::source_tick(sink, 3));
  q.schedule(SimTime::from_ms(10), SimEvent::source_tick(sink, 1));
  q.schedule(SimTime::from_ms(20), SimEvent::source_tick(sink, 2));
  while (!q.empty()) {
    SimTime at;
    q.pop(at).fire();
  }
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  TestSink sink;
  for (std::uint32_t i = 0; i < 5; ++i) {
    q.schedule(SimTime::from_ms(7), SimEvent::source_tick(sink, i));
  }
  while (!q.empty()) {
    SimTime at;
    q.pop(at).fire();
  }
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TestSink sink{sim};
  sim.schedule_at(SimTime::from_ms(42), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(sink.fired_ms, (std::vector<double>{42.0}));
  EXPECT_EQ(sim.now(), SimTime::from_sec(1));  // left at the horizon
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  TestSink sink{sim};
  sink.reschedules = 1;
  sink.reschedule_delay = SimTime::from_ms(10);
  sim.schedule_in(SimTime::from_ms(10), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(sink.fired_ms, (std::vector<double>{10.0, 20.0}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  TestSink sink{sim};
  sim.schedule_at(SimTime::from_ms(10), SimEvent::source_tick(sink, 0));
  sim.schedule_at(SimTime::from_ms(999), SimEvent::source_tick(sink, 1));
  sim.run_until(SimTime::from_ms(100));
  EXPECT_EQ(sink.indices.size(), 1u);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(sink.indices.size(), 2u);
}

TEST(SimulatorTest, PastSchedulingThrows) {
  Simulator sim;
  TestSink sink{sim};
  sim.schedule_at(SimTime::from_ms(50), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_ms(100));
  EXPECT_THROW(
      sim.schedule_at(SimTime::from_ms(10), SimEvent::source_tick(sink, 1)),
      std::logic_error);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  TestSink sink{sim};
  sim.schedule_at(SimTime::from_ms(1), SimEvent::source_tick(sink, 0));
  sim.schedule_at(SimTime::from_ms(2), SimEvent::source_tick(sink, 1));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sink.indices.size(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, EventsCanCascadeAtSameTime) {
  // Each dispatch schedules the next event zero time later, from inside
  // handle_event; the whole chain runs at the same instant.
  Simulator sim;
  TestSink sink{sim};
  sink.reschedules = 4;
  sink.reschedule_delay = SimTime::zero();
  sim.schedule_at(SimTime::from_ms(1), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_ms(2));
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sink.fired_ms, (std::vector<double>(5, 1.0)));
}

}  // namespace
}  // namespace arpanet::sim
