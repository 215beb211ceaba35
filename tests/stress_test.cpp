// Failure-injection and long-haul robustness sweeps. These are the "keeps
// running no matter what" tests: random trunk flaps, saturation, metric
// churn — invariants must hold throughout.

#include <gtest/gtest.h>

#include "src/analysis/convergence.h"
#include "src/net/builders/builders.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

/// Random trunk flaps while traffic flows: the network must never lose
/// conservation, never deadlock, and must converge once flapping stops.
/// Parameterized over metric kinds.
class FlapStress : public ::testing::TestWithParam<metrics::MetricKind> {};

INSTANTIATE_TEST_SUITE_P(Metrics, FlapStress,
                         ::testing::Values(metrics::MetricKind::kMinHop,
                                           metrics::MetricKind::kDspf,
                                           metrics::MetricKind::kHnSpf));

TEST_P(FlapStress, RandomTrunkFlapsNeverBreakInvariants) {
  const auto net87 = net::builders::arpanet87();
  NetworkConfig cfg;
  cfg.metric = GetParam();
  Network net{net87.topo, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::peak_hour(net87.topo.node_count(), 300e3,
                                        util::Rng{7}));
  util::Rng rng{GetParam() == metrics::MetricKind::kDspf ? 21u : 22u};

  // Flap random non-critical trunks. To keep the network connected we only
  // ever have one trunk down at a time.
  net::LinkId down = net::kInvalidLink;
  for (int round = 0; round < 12; ++round) {
    net.run_for(SimTime::from_sec(15));
    if (down != net::kInvalidLink) {
      net.set_trunk_up(down, true);
      down = net::kInvalidLink;
    } else {
      const auto trunk = static_cast<net::LinkId>(
          2 * rng.uniform_index(net87.topo.trunk_count()));
      net.set_trunk_up(trunk, false);
      down = trunk;
    }
  }
  if (down != net::kInvalidLink) net.set_trunk_up(down, true);

  // Quiesce and drain.
  net.run_for(SimTime::from_sec(60));
  net.stop_traffic();
  net.run_for(SimTime::from_sec(60));
  // Maps can only agree once no flooded report is still on its way: the
  // metric keeps reporting after the last flap, so step (at most 30 s of
  // sim time, in 100 ms steps) until nothing is in flight.
  constexpr int kMaxQuiesceSteps = 300;
  int steps = 0;
  while (net.updates_in_flight() > 0 && steps < kMaxQuiesceSteps) {
    net.run_for(SimTime::from_ms(100));
    ++steps;
  }
  ASSERT_EQ(net.updates_in_flight(), 0u)
      << "routing updates still in flight after " << kMaxQuiesceSteps
      << " quiesce steps";

  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 10'000);
  EXPECT_EQ(s.packets_generated,
            s.packets_delivered + s.packets_dropped_queue +
                s.packets_dropped_unreachable + s.packets_dropped_loop);
  // SPF forwarding between consistent maps never loops.
  EXPECT_EQ(s.packets_dropped_loop, 0);
  // After the last recovery, a quiet minute and quiescence, all PSNs agree.
  EXPECT_TRUE(analysis::costs_converged(net));
}

TEST(StressTest, SustainedSaturationStaysLive) {
  // 3x network capacity for five simulated minutes: the simulator must stay
  // live (updates flowing, packets delivered at capacity), not wedge.
  const auto two = net::builders::two_region(4);
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  cfg.queue_capacity = 15;
  Network net{two.topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(two.topo.node_count(), 600e3));
  net.run_for(SimTime::from_sec(300));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 50'000);
  EXPECT_GT(s.packets_dropped_queue, 10'000);
  EXPECT_GT(s.updates_originated, 50);  // control plane survived
}

// Allocation counters misbehave only as noise under sanitizers (ASan/TSan
// shadow structures and interceptors allocate through our operator new), so
// the zero assertion applies to plain optimized builds only; the counters
// themselves are still exercised everywhere.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ARPANET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ARPANET_TEST_SANITIZED 1
#endif
#endif

TEST(StressTest, Arpanet87BatteryWindowIsAllocationFree) {
  // Mirror the bench battery's arpanet87 cell (src/obs/bench_report.cpp):
  // HN-SPF, 600 kb/s peak-hour load, 60 s warm-up, 120 s window. After
  // warm-up every pool and scratch buffer must be at its high-water mark,
  // so the guarded measurement window performs zero heap allocations.
  const auto net87 = net::builders::arpanet87();
  auto cfg = ScenarioConfig{}
                 .with_metric(metrics::MetricKind::kHnSpf)
                 .with_load_bps(600e3)
                 .with_warmup(SimTime::from_sec(60))
                 .with_window(SimTime::from_sec(120));
  const ScenarioResult r = run_scenario(net87.topo, cfg, "alloc-guard");

  // run_scenario wraps exactly the measurement window in an AllocGuard and
  // reports through the counters catalog.
  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "steady-state measurement window allocated on the heap; find the "
         "site with util::AllocGuard and pre-reserve it (see "
         "docs/static_analysis.md)";
#else
  // Debug/sanitized builds allocate in DCHECK plumbing and interceptors;
  // just prove the plumbing reported something sane.
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  EXPECT_GT(r.stats.packets_delivered, 10'000);
}

TEST(StressTest, FlapStormWindowIsAllocationFree) {
  // The fault engine under fire: a 1 Hz flap storm on one trunk running
  // through the entire arpanet87 measurement window. Fault actions are
  // first-class SimEvents and the plan is compiled and pre-sized at install
  // time, so even a storm keeps the guarded window allocation-free.
  const auto net87 = net::builders::arpanet87();
  auto cfg = ScenarioConfig{}
                 .with_metric(metrics::MetricKind::kHnSpf)
                 .with_load_bps(600e3)
                 .with_warmup(SimTime::from_sec(60))
                 .with_window(SimTime::from_sec(120))
                 .with_faults("flap:link=0,period_s=1,dwell_s=0.4");
  const ScenarioResult r = run_scenario(net87.topo, cfg, "flap-storm");

  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "fault injection allocated inside the measurement window; fault "
         "state must be pre-sized at install time (see docs/faults.md)";
#else
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  // ~120 down/up pairs land inside the window.
  EXPECT_GT(r.stability.faults_applied, 100);
  EXPECT_GT(r.stats.packets_delivered, 10'000);
}

TEST(StressTest, DelayPercentilesOrdered) {
  const auto net87 = net::builders::arpanet87();
  NetworkConfig cfg;
  Network net{net87.topo, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::peak_hour(net87.topo.node_count(), 420e3,
                                        util::Rng{3}));
  net.run_for(SimTime::from_sec(180));
  const auto ind = net.indicators("x");
  EXPECT_GT(ind.delay_p50_ms, 0.0);
  EXPECT_LE(ind.delay_p50_ms, ind.delay_p95_ms);
  EXPECT_LE(ind.delay_p95_ms, ind.delay_p99_ms);
  // Mean sits between median and p99 for this right-skewed distribution.
  EXPECT_GT(ind.delay_p99_ms, ind.round_trip_delay_ms / 2.0);
}

}  // namespace
}  // namespace arpanet::sim
