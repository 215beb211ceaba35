// The calendar queue (sim/event_queue.h): randomized order equivalence
// against the binary-heap semantics it replaced, resize/overflow boundary
// behavior, and the compact, trivially copyable SimEvent layout (sim/event.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/event_queue.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

class NullSink : public EventSink {
 public:
  void handle_event(SimEvent& ev) override { (void)ev; }
};

/// The old binary heap's exact semantics: pop the minimum (time, seq) pair,
/// FIFO among equal times. The calendar queue must reproduce this order
/// bit-for-bit.
class ReferenceHeap {
 public:
  void schedule(std::int64_t at_us, std::uint64_t payload) {
    heap_.push_back(Entry{at_us, seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] std::pair<std::int64_t, std::uint64_t> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return {e.at_us, e.payload};
  }

 private:
  struct Entry {
    std::int64_t at_us;
    std::uint64_t seq;
    std::uint64_t payload;

    [[nodiscard]] bool operator>(const Entry& o) const {
      return at_us != o.at_us ? at_us > o.at_us : seq > o.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
};

struct Lcg {
  std::uint64_t state;

  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// Drives the calendar queue and the reference heap through the same
/// schedule/pop sequence and demands identical (time, payload) pop streams.
/// As in a real simulation, schedule times are >= the last popped time.
void run_equivalence(EventQueue& q, Lcg& rng, std::uint64_t rounds,
                     std::uint64_t pop_bias,
                     const std::function<std::int64_t(Lcg&)>& gap) {
  ReferenceHeap ref;
  NullSink sink;
  std::int64_t now_us = 0;
  std::uint64_t payload = 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (q.empty() || rng.next() % 4 >= pop_bias) {
      const std::int64_t at = now_us + gap(rng);
      ref.schedule(at, payload);
      q.schedule(SimTime::from_us(at),
                 SimEvent::host_flow_timeout(sink, /*pair_index=*/0, payload,
                                             /*generation=*/1));
      ++payload;
    } else {
      SimTime at;
      const SimEvent ev = q.pop(at);
      const auto [ref_at, ref_payload] = ref.pop();
      ASSERT_EQ(at.us(), ref_at) << "pop time diverged at round " << round;
      ASSERT_EQ(ev.id(), ref_payload)
          << "pop order diverged at round " << round;
      ASSERT_GE(at.us(), now_us);
      now_us = at.us();
    }
  }
  // Drain both completely; the tails must match too.
  while (!q.empty()) {
    SimTime at;
    const SimEvent ev = q.pop(at);
    ASSERT_FALSE(ref.empty());
    const auto [ref_at, ref_payload] = ref.pop();
    ASSERT_EQ(at.us(), ref_at);
    ASSERT_EQ(ev.id(), ref_payload);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueueTest, MatchesHeapOrderOnNearFutureChurn) {
  // Dense near-future gaps (the simulator's dominant distribution),
  // including zero gaps that merge into the day being drained.
  EventQueue q;
  Lcg rng{12345};
  run_equivalence(q, rng, 20000, /*pop_bias=*/1,
                  [](Lcg& r) { return static_cast<std::int64_t>(r.next() % 200); });
  EXPECT_GT(q.peak_size(), 1000u) << "churn never built a real population";
  EXPECT_GT(q.resizes(), 0u) << "growth never re-derived the geometry";
}

TEST(CalendarQueueTest, MatchesHeapOrderAcrossWideSpansAndOverflow) {
  // Mostly near-future, but every ~16th event lands minutes-to-an-hour out:
  // exercises the sorted overflow list, its migration back into the window,
  // and overflow-pressure resizes.
  EventQueue q;
  Lcg rng{99991};
  run_equivalence(q, rng, 20000, /*pop_bias=*/2, [](Lcg& r) {
    if (r.next() % 16 == 0) {
      return static_cast<std::int64_t>(r.next() % 3'600'000'000ULL);
    }
    return static_cast<std::int64_t>(r.next() % 5000);
  });
  EXPECT_GT(q.overflow_scheduled(), 0u)
      << "the wide-span workload never hit the overflow path";
}

TEST(CalendarQueueTest, MatchesHeapOrderThroughGrowAndShrinkBoundaries) {
  // Alternating build-up and drain-down phases cross the grow and shrink
  // resize triggers repeatedly; order must hold through every relink.
  EventQueue q;
  Lcg rng{777};
  for (int phase = 0; phase < 4; ++phase) {
    // pop_bias 0: schedule-only (grow); pop_bias 3: pop 3 of 4 (shrink).
    run_equivalence(q, rng, 3000, /*pop_bias=*/phase % 2 == 0 ? 0 : 3,
                    [](Lcg& r) {
                      return static_cast<std::int64_t>(r.next() % 10000);
                    });
  }
  EXPECT_GT(q.resizes(), 1u);
}

TEST(CalendarQueueTest, FifoTieBreakSurvivesAResize) {
  EventQueue q;
  NullSink sink;
  const SimTime tie = SimTime::from_ms(500);
  // Interleave the tied events with enough fill to cross the grow trigger
  // (population > 2x buckets) mid-sequence.
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.schedule(tie, SimEvent::host_flow_timeout(sink, 0, i, 1));
    for (int j = 0; j < 10; ++j) {
      q.schedule(SimTime::from_us(static_cast<std::int64_t>(i * 10 + j)),
                 SimEvent::host_flow_timeout(sink, 1, 0, 0));
    }
  }
  EXPECT_GT(q.resizes(), 0u);
  std::uint64_t expected = 0;
  SimTime at;
  while (!q.empty()) {
    const SimEvent ev = q.pop(at);
    if (at == tie) {
      EXPECT_EQ(ev.id(), expected) << "FIFO tie-break broken after resize";
      ++expected;
    }
  }
  EXPECT_EQ(expected, 100u);
}

TEST(CalendarQueueTest, SameTickFifoIsKindAgnostic) {
  // Unkeyed events of every kind share one FIFO counter: at a shared tick
  // the pop order is the scheduling order, regardless of kind.
  EventQueue q;
  NullSink sink;
  const SimTime tie = SimTime::from_ms(250);
  for (std::uint32_t i = 0; i < 90; ++i) {
    switch (i % 3) {
      case 0:
        q.schedule(tie, SimEvent::fault_action(sink, i));
        break;
      case 1:
        q.schedule(tie, SimEvent::host_flow_timeout(sink, i, i, 1));
        break;
      default:
        q.schedule(tie, SimEvent::source_tick(sink, i));
        break;
    }
    // Off-tie fill keeps the bucket array churning between tied inserts.
    q.schedule(SimTime::from_us(i), SimEvent::measurement_period(sink, 0));
  }
  std::uint32_t expected = 0;
  SimTime at;
  while (!q.empty()) {
    const SimEvent ev = q.pop(at);
    if (at != tie) continue;
    const SimEvent::Kind want = expected % 3 == 0
                                    ? SimEvent::Kind::kFaultAction
                                : expected % 3 == 1
                                    ? SimEvent::Kind::kHostFlowTimeout
                                    : SimEvent::Kind::kSourceTick;
    EXPECT_EQ(ev.kind(), want) << "kind order broken at " << expected;
    EXPECT_EQ(ev.index(), expected) << "FIFO broken across kinds";
    ++expected;
  }
  EXPECT_EQ(expected, 90u);
}

TEST(CalendarQueueTest, KeyedTiesPopInKeyOrderWhateverTheScheduleOrder) {
  // The sharded engine's contract: simultaneous keyed events pop in key
  // order however they were scheduled, and unkeyed events at the same time
  // pop first, FIFO. Keys arrive scrambled, across grow resizes, overflow
  // and mid-drain inserts.
  EventQueue q;
  NullSink sink;
  Lcg rng{99};
  struct Want {
    std::int64_t at_us;
    std::uint64_t key;  ///< the FIFO rank for unkeyed events
    std::uint64_t id;
  };
  std::vector<Want> want;
  std::uint64_t unkeyed = 0;
  for (std::uint64_t id = 0; id < 4000; ++id) {
    const auto at_us = static_cast<std::int64_t>(rng.next() % 8) * 1000;
    const bool keyed = rng.next() % 4 != 0;
    // Distinct keys: the id scrambled into the count field of a node owner.
    const std::uint64_t key =
        keyed ? event_key(1 + rng.next() % 50, (id * 7919) % 4001) : 0;
    q.schedule(SimTime::from_us(at_us),
               SimEvent::host_flow_timeout(sink, 0, id, 0), key);
    want.push_back({at_us, keyed ? key : unkeyed++, id});
  }
  std::sort(want.begin(), want.end(), [](const Want& a, const Want& b) {
    // FIFO ranks sit below every keyed value, so one comparison covers
    // both kinds.
    return a.at_us != b.at_us ? a.at_us < b.at_us : a.key < b.key;
  });
  EXPECT_GT(q.resizes(), 0u);
  SimTime at;
  for (const Want& w : want) {
    ASSERT_FALSE(q.empty());
    const SimEvent ev = q.pop(at);
    EXPECT_EQ(at.us(), w.at_us);
    ASSERT_EQ(ev.id(), w.id) << "tie order broken at t=" << w.at_us;
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, ReAnchorsAfterDrainingToEmpty) {
  // An idle gap (queue fully drained, next event much later) must re-anchor
  // the window instead of scanning the dead days in between.
  EventQueue q;
  NullSink sink;
  SimTime at;
  q.schedule(SimTime::from_us(10), SimEvent::host_flow_timeout(sink, 0, 1, 0));
  (void)q.pop(at);
  EXPECT_TRUE(q.empty());
  q.schedule(SimTime::from_sec(7200.0),
             SimEvent::host_flow_timeout(sink, 0, 2, 0));
  q.schedule(SimTime::from_sec(3600.0),
             SimEvent::host_flow_timeout(sink, 0, 3, 0));
  EXPECT_EQ(q.next_time(), SimTime::from_sec(3600.0));
  EXPECT_EQ(q.pop(at).id(), 3u);
  EXPECT_EQ(q.pop(at).id(), 2u);
  EXPECT_EQ(at, SimTime::from_sec(7200.0));
}

// ---------------------------------------------------------------------------
// The compact SimEvent slab slot
// ---------------------------------------------------------------------------

TEST(SimEventLayoutTest, UnionKeepsTheSlabSlotToOneCacheLine) {
  // The slot was 128 bytes when a callable wrapper sat beside the typed
  // payload; the plain record is a single cache line — a 50% cut,
  // comfortably past the 40% the redesign promised.
  EXPECT_EQ(sizeof(SimEvent), 64u);
  constexpr std::size_t kPreUnionSize = 128;
  EXPECT_LE(sizeof(SimEvent) * 10, kPreUnionSize * 6)
      << "slab slot regressed above 60% of the pre-union layout";
  EXPECT_EQ(alignof(SimEvent), alignof(void*));
}

TEST(SimEventLayoutTest, TypedPayloadRoundTripsThroughMoves) {
  NullSink sink;
  SimEvent ev = SimEvent::transmit_complete(
      sink, /*node=*/3, /*link=*/9, /*packet=*/12,
      /*queue_delay=*/SimTime::from_us(70), /*tx_time=*/SimTime::from_us(800),
      /*is_update=*/true);
  // A move of the trivially copyable record is a plain copy.
  SimEvent moved = ev;
  SimEvent assigned;
  assigned = moved;
  EXPECT_EQ(assigned.kind(), SimEvent::Kind::kTransmitComplete);
  EXPECT_EQ(assigned.index(), 3u);
  EXPECT_EQ(assigned.link(), 9u);
  EXPECT_EQ(assigned.packet(), 12u);
  EXPECT_EQ(assigned.t1(), SimTime::from_us(70));
  EXPECT_EQ(assigned.t2(), SimTime::from_us(800));
  EXPECT_TRUE(assigned.flag());
}

}  // namespace
}  // namespace arpanet::sim
