// Integration tests: PSNs + SPF + metrics + flooding + traffic, end to end.

#include "src/sim/network.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/builders/builders.h"
#include "src/sim/scenario.h"

namespace arpanet::sim {
namespace {

using metrics::MetricKind;
using net::LineType;
using util::SimTime;

net::Topology two_nodes() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(10));
  return t;
}

net::Topology line3() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(5));
  t.add_duplex(b, c, LineType::kTerrestrial56, SimTime::from_ms(5));
  return t;
}

TEST(NetworkTest, DeliversPacketsOnPointToPoint) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3));  // light load
  net.run_for(SimTime::from_sec(60));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 500);
  EXPECT_EQ(s.packets_dropped_queue, 0);
  EXPECT_EQ(s.packets_dropped_unreachable, 0);
  EXPECT_DOUBLE_EQ(s.path_hops.mean(), 1.0);
  // One-way delay: ~10 ms prop + ~10.7 ms transmission + light queueing.
  EXPECT_GT(s.one_way_delay_ms.mean(), 15.0);
  EXPECT_LT(s.one_way_delay_ms.mean(), 40.0);
}

TEST(NetworkTest, ForwardsAcrossIntermediateNode) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  traffic::TrafficMatrix m{3};
  m.set(0, 2, 5e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 200);
  EXPECT_DOUBLE_EQ(net.stats().path_hops.mean(), 2.0);
  EXPECT_DOUBLE_EQ(net.stats().min_hops.mean(), 2.0);
}

TEST(NetworkTest, DeterministicForSeed) {
  const net::Topology topo = line3();
  auto run = [&](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.seed = seed;
    Network net{topo, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(3, 30e3));
    net.run_for(SimTime::from_sec(120));
    return std::tuple{net.stats().packets_delivered,
                      net.stats().one_way_delay_ms.mean(),
                      net.stats().updates_originated};
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(std::get<0>(run(1)), std::get<0>(run(2)));
}

TEST(NetworkTest, OverloadCausesQueueDrops) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.queue_capacity = 10;
  Network net{topo, cfg};
  // 2x the 56 kb/s capacity in one direction.
  traffic::TrafficMatrix m{2};
  m.set(0, 1, 112e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_dropped_queue, 100);
  // Drop series recorded them in time buckets.
  double total = 0;
  for (const double v : net.drop_series().values()) total += v;
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(net.stats().packets_dropped_queue));
}

TEST(NetworkTest, RoutingUpdatesFlowAndAreCounted) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  // The 50 s reliability rule alone forces ~2+ updates per node.
  EXPECT_GE(s.updates_originated, 6);
  EXPECT_GT(s.update_packets_sent, s.updates_originated);
}

TEST(NetworkTest, CostsPropagateToAllNodes) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
  net.run_for(SimTime::from_sec(180));
  // After several measurement periods, node 2's view of link 0 (node 0's
  // outgoing link) equals what node 0 last reported.
  const double reported = net.psn(0).reported_cost(0);
  EXPECT_DOUBLE_EQ(net.psn(2).spf().costs()[0], reported);
  EXPECT_DOUBLE_EQ(net.psn(1).spf().costs()[0], reported);
}

TEST(NetworkTest, HnCostsEaseInFromMax) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  cfg.track_reported_costs = true;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 5e3));
  net.run_for(SimTime::from_sec(120));
  const auto& trace = net.reported_cost_trace(0);
  ASSERT_GE(trace.size(), 3u);
  // Starts high (eased in from 90) and declines toward the floor (~31).
  EXPECT_GT(trace.front().second, 70.0);
  EXPECT_LT(trace.back().second, 40.0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].second, trace[i - 1].second);
  }
}

TEST(NetworkTest, TrunkDownReroutesTraffic) {
  // Square: a-b-d and a-c-d. Kill a-b; traffic a->d must keep flowing via c.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  const auto ab = t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(a, c, LineType::kTerrestrial56);
  t.add_duplex(b, d, LineType::kTerrestrial56);
  t.add_duplex(c, d, LineType::kTerrestrial56);

  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{t, cfg};
  traffic::TrafficMatrix m{4};
  m.set(a, d, 10e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  net.set_trunk_up(ab, false);
  net.run_for(SimTime::from_sec(30));  // let the update flood + reroute
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 500);
  // All deliveries go the c way: still 2 hops.
  EXPECT_DOUBLE_EQ(s.path_hops.mean(), 2.0);
  // And the b-side trunk is idle.
  const std::size_t bucket = static_cast<std::size_t>(
      (net.now() - SimTime::from_sec(60)).us() / cfg.stats_bucket.us());
  EXPECT_DOUBLE_EQ(net.link_utilization(t.link(ab).id, bucket), 0.0);
}

TEST(NetworkTest, TrunkBackUpIsEasedIn) {
  net::Topology t = two_nodes();
  // Second parallel trunk so the network stays connected.
  const auto extra = t.add_duplex(0, 1, LineType::kTerrestrial56);
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{t, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3));
  net.run_for(SimTime::from_sec(100));
  net.set_trunk_up(extra, false);
  net.run_for(SimTime::from_sec(100));
  EXPECT_DOUBLE_EQ(net.psn(0).reported_cost(extra), Psn::kDownLinkCost);
  net.set_trunk_up(extra, true);
  // Immediately after up: advertised at its maximum cost (ease-in).
  EXPECT_DOUBLE_EQ(net.psn(0).reported_cost(extra), 90.0);
  net.run_for(SimTime::from_sec(100));
  EXPECT_LT(net.psn(0).reported_cost(extra), 90.0);
}

TEST(NetworkTest, IndicatorsAreConsistent) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 30e3));
  net.run_for(SimTime::from_sec(60));
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  const auto ind = net.indicators("test");
  EXPECT_NEAR(ind.internode_traffic_kbps, 30.0, 6.0);
  EXPECT_GT(ind.round_trip_delay_ms, 0.0);
  EXPECT_GE(ind.actual_path_hops, ind.minimum_path_hops);
  EXPECT_GT(ind.update_period_per_node_sec, 0.0);
  // 50 s reliability cap, plus slack for the staggered period phases.
  EXPECT_LE(ind.update_period_per_node_sec, 55.0);
}

TEST(NetworkTest, MetricKindsAllRun) {
  const net::Topology topo = line3();
  for (const MetricKind kind :
       {MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf}) {
    NetworkConfig cfg;
    cfg.metric = kind;
    Network net{topo, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
    net.run_for(SimTime::from_sec(60));
    EXPECT_GT(net.stats().packets_delivered, 100) << to_string(kind);
  }
}

TEST(NetworkTest, RejectsDisconnectedTopologyAndBadMatrix) {
  net::Topology t;
  t.add_node("a");
  t.add_node("b");
  EXPECT_THROW((Network{t, NetworkConfig{}}), std::invalid_argument);

  const net::Topology ok = two_nodes();
  Network net{ok, NetworkConfig{}};
  EXPECT_THROW(net.add_traffic(traffic::TrafficMatrix{5}),
               std::invalid_argument);
}

TEST(NetworkTest, AggregateSourcesOfferEveryPairItsOwnRate) {
  // One Poisson source per PSN stands in for one per (source, destination)
  // pair. At a load that drops nothing, each pair's delivered count over T
  // is then Poisson with mean rate x T, so it must land within 4 sigma.
  constexpr std::size_t kNodes = 6;
  const net::Topology topo = net::builders::ring(static_cast<int>(kNodes));
  const traffic::TrafficMatrix m =
      traffic::TrafficMatrix::peak_hour(kNodes, 30e3, util::Rng{3});
  NetworkConfig cfg;
  Network net{topo, cfg};
  std::vector<long> delivered(kNodes * kNodes, 0);
  net.set_delivery_hook(
      [&delivered](const Packet& p) { ++delivered[p.src * kNodes + p.dst]; });
  net.add_traffic(m);
  const SimTime horizon = SimTime::from_sec(600);
  net.run_for(horizon);
  net.stop_traffic();
  net.run_for(SimTime::from_sec(30));

  const NetworkStats& s = net.stats();
  ASSERT_EQ(s.packets_dropped_queue + s.packets_dropped_unreachable +
                s.packets_dropped_loop,
            0);
  ASSERT_EQ(s.packets_generated, s.packets_delivered);
  for (net::NodeId src = 0; src < kNodes; ++src) {
    for (net::NodeId dst = 0; dst < kNodes; ++dst) {
      const double expected =
          m.at(src, dst) / cfg.mean_packet_bits * horizon.sec();
      const long got = delivered[src * kNodes + dst];
      if (src == dst) {
        EXPECT_EQ(got, 0);
        continue;
      }
      ASSERT_GT(expected, 25.0) << src << "->" << dst;
      EXPECT_NEAR(static_cast<double>(got), expected, 4.0 * std::sqrt(expected))
          << src << "->" << dst;
    }
  }
}

TEST(ScenarioTest, RunScenarioProducesIndicators) {
  const net::Topology topo = line3();
  ScenarioConfig cfg;
  cfg.offered_load_bps = 20e3;
  cfg.warmup = SimTime::from_sec(30);
  cfg.window = SimTime::from_sec(60);
  cfg.shape = TrafficShape::kUniform;
  const ScenarioResult r = run_scenario(topo, cfg, "x");
  EXPECT_EQ(r.indicators.label, "x");
  EXPECT_GT(r.stats.packets_delivered, 100);
}

}  // namespace
}  // namespace arpanet::sim
