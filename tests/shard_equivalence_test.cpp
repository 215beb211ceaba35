// The sharded engine's headline contract: running one network at K=1, 2
// and 4 produces the SAME simulation — identical event totals, per-PSN
// routing state, per-link reported costs, integer packet totals and
// stability telemetry — with faults active (a trunk flap and a mid-run
// line-type upgrade) and on a uniform-delay grid, where packets from
// different shards reach one PSN in the same microsecond all the time. The
// conservative lookahead plus partition-independent event tie keys make
// the parallel run the same event sequence per node, not an approximation
// of it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"
#include "src/net/graph_spec.h"
#include "src/net/topology.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/units.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

// Everything worth comparing, in exactly-representable quantities: link
// ids, longs, and doubles that are produced by identical single operations
// (reported costs, max over movements) rather than cross-shard summation —
// summing doubles in a different order is the one place the merge may
// legitimately differ in the last ulp, so bits_delivered and the delay
// summaries stay out of the fingerprint.
struct Fingerprint {
  std::uint64_t events = 0;
  std::vector<net::LinkId> first_hops;  ///< per (node, dst), flattened
  std::vector<double> reported_costs;   ///< per link
  long generated = 0;
  long delivered = 0;
  long dropped_queue = 0;
  long dropped_unreachable = 0;
  long dropped_loop = 0;
  long updates_originated = 0;
  long update_packets_sent = 0;
  StabilityStats stability;
  long upgrades = 0;
};

/// One network run at `shards` shards. With `faults`, a trunk flap and a
/// line upgrade land inside the window.
Fingerprint run_with_shards(const net::GraphSpec& spec, double load_bps,
                            bool faults, int shards) {
  const net::Topology topo = net::TopologyBuilder::registry().build(spec);

  NetworkConfig cfg;
  cfg.shards = shards;
  Network net{topo, cfg};

  const SimTime warmup = SimTime::from_sec(30);
  const SimTime window = SimTime::from_sec(60);

  if (faults) {
    FaultPlan plan;
    plan.flap_link(2, warmup + SimTime::from_sec(10), SimTime::from_sec(8));
    plan.upgrade_line(6, warmup + SimTime::from_sec(25),
                      net::LineType::kMultiTrunk112);
    net.install_faults(plan, warmup + window);
  }

  net.add_traffic(traffic::TrafficMatrix::uniform(topo.node_count(), load_bps));
  net.run_for(warmup);
  net.reset_stats();
  net.run_for(window);

  // Drain: no new packets, run until every flooded update has been consumed
  // everywhere, so the routing state compared below is the settled one.
  net.stop_traffic();
  for (int i = 0; i < 30 && net.updates_in_flight() > 0; ++i) {
    net.run_for(SimTime::from_sec(5));
  }
  EXPECT_EQ(net.updates_in_flight(), 0u) << "shards=" << shards;

  Fingerprint fp;
  fp.events = net.events_processed();
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(topo.node_count());
       ++v) {
    const auto& hops = net.psn(v).tree().first_hop;
    fp.first_hops.insert(fp.first_hops.end(), hops.begin(), hops.end());
  }
  for (net::LinkId l = 0; l < static_cast<net::LinkId>(topo.link_count());
       ++l) {
    fp.reported_costs.push_back(net.last_reported_cost(l));
  }
  const NetworkStats& st = net.stats();
  fp.generated = st.packets_generated;
  fp.delivered = st.packets_delivered;
  fp.dropped_queue = st.packets_dropped_queue;
  fp.dropped_unreachable = st.packets_dropped_unreachable;
  fp.dropped_loop = st.packets_dropped_loop;
  fp.updates_originated = st.updates_originated;
  fp.update_packets_sent = st.update_packets_sent;
  fp.stability = net.stability();
  for (const net::Link& l : topo.links()) {
    if (net.effective_link(l.id).type != l.type) ++fp.upgrades;
  }
  return fp;
}

net::GraphSpec waxman() {
  return net::GraphSpec{"waxman"}.with_nodes(48).with_seed(7);
}

net::GraphSpec leo_grid() {
  return net::GraphSpec{"leo-grid"}.with_nodes(64).with_seed(1987);
}

void expect_same(const Fingerprint& one, const Fingerprint& k, int shards) {
  EXPECT_GT(one.events, 0u);
  EXPECT_EQ(one.events, k.events) << "K=" << shards;
  EXPECT_EQ(one.first_hops, k.first_hops) << "K=" << shards;
  // Reported costs are produced by the same metric arithmetic on the same
  // measured periods in both runs — bitwise equality, not tolerance.
  ASSERT_EQ(one.reported_costs.size(), k.reported_costs.size());
  for (std::size_t l = 0; l < one.reported_costs.size(); ++l) {
    EXPECT_EQ(one.reported_costs[l], k.reported_costs[l])
        << "K=" << shards << " link " << l;
  }

  EXPECT_GT(one.generated, 0);
  EXPECT_EQ(one.generated, k.generated) << "K=" << shards;
  EXPECT_EQ(one.delivered, k.delivered) << "K=" << shards;
  EXPECT_EQ(one.dropped_queue, k.dropped_queue) << "K=" << shards;
  EXPECT_EQ(one.dropped_unreachable, k.dropped_unreachable) << "K=" << shards;
  EXPECT_EQ(one.dropped_loop, k.dropped_loop) << "K=" << shards;
  EXPECT_GT(one.updates_originated, 0);
  EXPECT_EQ(one.updates_originated, k.updates_originated) << "K=" << shards;
  EXPECT_EQ(one.update_packets_sent, k.update_packets_sent) << "K=" << shards;

  EXPECT_EQ(one.stability.route_changes, k.stability.route_changes);
  EXPECT_EQ(one.stability.flat_oscillations, k.stability.flat_oscillations);
  EXPECT_EQ(one.stability.max_movement, k.stability.max_movement);
  EXPECT_EQ(one.stability.faults_applied, k.stability.faults_applied);
  EXPECT_EQ(one.stability.reconverge_sec, k.stability.reconverge_sec);
}

TEST(ShardEquivalenceTest, FourShardsMatchSingleShardUnderFaults) {
  const Fingerprint one = run_with_shards(waxman(), 600e3, true, 1);
  const Fingerprint four = run_with_shards(waxman(), 600e3, true, 4);
  expect_same(one, four, 4);
  // Both halves of the one upgraded trunk, in both runs.
  EXPECT_EQ(one.upgrades, 2);
  EXPECT_EQ(four.upgrades, 2);
}

TEST(ShardEquivalenceTest, TwoShardsMatchSingleShardUnderFaults) {
  const Fingerprint one = run_with_shards(waxman(), 600e3, true, 1);
  const Fingerprint two = run_with_shards(waxman(), 600e3, true, 2);
  expect_same(one, two, 2);
}

TEST(ShardEquivalenceTest, UniformDelayGridIsBitwiseAcrossShardCounts) {
  // leo-grid's intra-plane trunks share one propagation delay, so
  // same-microsecond arrivals from different shards are routine here.
  const Fingerprint one = run_with_shards(leo_grid(), 400e3, false, 1);
  for (const int shards : {2, 4}) {
    expect_same(one, run_with_shards(leo_grid(), 400e3, false, shards), shards);
  }
}

}  // namespace
}  // namespace arpanet::sim
