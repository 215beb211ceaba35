#include "src/routing/spf.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/builders/builders.h"
#include "src/net/builders/registry.h"
#include "src/net/graph_spec.h"
#include "src/routing/routing_table.h"
#include "src/sim/psn.h"
#include "src/util/rng.h"

namespace arpanet::routing {
namespace {

using net::LineType;
using net::Topology;

Topology diamond() {
  // a -> b -> d and a -> c -> d.
  Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, LineType::kTerrestrial56);  // links 0,1
  t.add_duplex(a, c, LineType::kTerrestrial56);  // links 2,3
  t.add_duplex(b, d, LineType::kTerrestrial56);  // links 4,5
  t.add_duplex(c, d, LineType::kTerrestrial56);  // links 6,7
  return t;
}

TEST(SpfTest, ShortestPathOnDiamond) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;  // a->b expensive: route to d must go a->c->d
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.first_hop[3], 2u);  // a->c
  EXPECT_EQ(tree.hops[3], 2);
}

TEST(SpfTest, RootFields) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 2, costs);
  EXPECT_EQ(tree.root, 2u);
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
  EXPECT_EQ(tree.parent_link[2], net::kInvalidLink);
  EXPECT_EQ(tree.hops[2], 0);
}

TEST(SpfTest, TieBreaksByLowestLinkId) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 0, costs);
  // Both a->b->d and a->c->d cost 2; canonical parent of d is the
  // lower-id in-link (b->d is link 4, c->d is link 6).
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.parent_link[3], 4u);
  EXPECT_EQ(tree.first_hop[3], 0u);
}

TEST(SpfTest, RejectsNonPositiveCosts) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[3] = 0.0;
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
  costs[3] = -1.0;
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
}

TEST(SpfTest, RejectsWrongCostVectorSize) {
  const Topology t = diamond();
  const LinkCosts costs(3, 1.0);
  EXPECT_THROW((void)Spf::compute(t, 0, costs), std::invalid_argument);
}

TEST(SpfTest, HopsCountTreeEdges) {
  const Topology t = net::builders::ring(6);
  const LinkCosts costs(t.link_count(), 1.0);
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_EQ(tree.hops[3], 3);  // opposite side of a 6-ring
  EXPECT_EQ(tree.hops[1], 1);
  EXPECT_EQ(tree.hops[5], 1);
}

TEST(SpfTest, UsesLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  const SpfTree tree = Spf::compute(t, 0, costs);
  EXPECT_TRUE(tree.uses_link(t, 2));   // a->c in tree
  EXPECT_FALSE(tree.uses_link(t, 0));  // a->b not in tree
}

// ---- incremental SPF ----

TEST(IncrementalSpfTest, SkipsIncreaseOnNonTreeLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;  // a->b not in tree from a
  IncrementalSpf inc{t, 0, costs};
  const long before = inc.skipped_updates();
  inc.set_cost(0, 6.0);  // increase on non-tree link: no work
  EXPECT_EQ(inc.skipped_updates(), before + 1);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
}

TEST(IncrementalSpfTest, AppliesDecrease) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 0.5);  // now a->b->d is cheaper
  EXPECT_DOUBLE_EQ(inc.tree().dist[1], 0.5);
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 1.5);
  EXPECT_EQ(inc.tree().first_hop[3], 0u);
}

TEST(IncrementalSpfTest, AppliesIncreaseOnTreeLink) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 10.0);  // a->b was (tied) in tree; push all through c
  EXPECT_DOUBLE_EQ(inc.tree().dist[1], 3.0);  // a->c->d->b
  EXPECT_DOUBLE_EQ(inc.tree().dist[3], 2.0);
  EXPECT_EQ(inc.tree().first_hop[1], 2u);
}

TEST(IncrementalSpfTest, NoopOnEqualCost) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  IncrementalSpf inc{t, 0, costs};
  inc.set_cost(0, 1.0);
  EXPECT_EQ(inc.skipped_updates(), 0);
  EXPECT_EQ(inc.incremental_updates(), 0);
}

/// Property: after any stream of random cost changes, the incremental tree
/// is identical to a full recompute — distances, parents, first hops, hops.
TEST(IncrementalSpfTest, MatchesFullRecomputeOnRandomGraphs) {
  util::Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const Topology t = net::builders::random_connected(
        16, 12, rng, LineType::kTerrestrial56);
    LinkCosts costs(t.link_count());
    for (double& c : costs) c = 1.0 + rng.uniform_index(5);
    IncrementalSpf inc{t, 0, costs};
    for (int step = 0; step < 60; ++step) {
      const auto link = static_cast<net::LinkId>(
          rng.uniform_index(t.link_count()));
      const double new_cost = 1.0 + static_cast<double>(rng.uniform_index(5));
      inc.set_cost(link, new_cost);
      costs[link] = new_cost;

      const SpfTree full = Spf::compute(t, 0, costs);
      for (net::NodeId v = 0; v < t.node_count(); ++v) {
        ASSERT_DOUBLE_EQ(inc.tree().dist[v], full.dist[v])
            << "trial " << trial << " step " << step << " node " << v;
        ASSERT_EQ(inc.tree().parent_link[v], full.parent_link[v]);
        ASSERT_EQ(inc.tree().first_hop[v], full.first_hop[v]);
        ASSERT_EQ(inc.tree().hops[v], full.hops[v]);
      }
    }
    EXPECT_GT(inc.skipped_updates() + inc.incremental_updates(), 0);
  }
}

// ---- tie-heavy differential ----
//
// Uniform and small-integer costs give most nodes several equal-cost
// parents, so nearly every update re-runs the lowest-id tie break, and the
// down cost moves whole subtrees at once.

void expect_same_tree(const SpfTree& got, const SpfTree& want,
                      const std::string& where) {
  for (std::size_t v = 0; v < want.dist.size(); ++v) {
    ASSERT_EQ(got.dist[v], want.dist[v]) << where << " node " << v;
    ASSERT_EQ(got.parent_link[v], want.parent_link[v])
        << where << " node " << v;
    ASSERT_EQ(got.first_hop[v], want.first_hop[v]) << where << " node " << v;
    ASSERT_EQ(got.hops[v], want.hops[v]) << where << " node " << v;
  }
}

long first_hop_diff(const SpfTree& a, const SpfTree& b) {
  long n = 0;
  for (std::size_t v = 0; v < a.first_hop.size(); ++v) {
    if (a.first_hop[v] != b.first_hop[v]) ++n;
  }
  return n;
}

/// Which kinds of update a stream exercised.
struct StreamMix {
  int tree_increase = 0;
  int tree_decrease = 0;
  int other_increase = 0;
  int other_decrease = 0;
  int down = 0;
};

/// Feeds `steps` random cost changes to an IncrementalSpf at `root` and
/// checks the tree and the first-hop-change count against full recomputes
/// after every one. Half the changes hit a current tree link. New costs
/// are the link's neighbours in `levels`, a fresh level, or the down cost.
void run_tie_stream(const Topology& t, LinkCosts costs, net::NodeId root,
                    const std::vector<double>& levels, util::Rng& rng,
                    int steps, bool reset_midway, StreamMix& mix) {
  IncrementalSpf inc{t, root, costs};
  SpfTree prev = Spf::compute(t, root, costs);
  expect_same_tree(inc.tree(), prev, "ctor");
  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "root " + std::to_string(root) + " step " + std::to_string(step);
    if (reset_midway && step == steps / 2) {
      for (double& c : costs) c = levels[rng.uniform_index(levels.size())];
      inc.reset(costs);
      prev = Spf::compute(t, root, costs);
      expect_same_tree(inc.tree(), prev, where + " reset");
    }
    net::LinkId link = net::kInvalidLink;
    if (rng.uniform_index(2) == 0) {
      const auto v =
          static_cast<net::NodeId>(rng.uniform_index(t.node_count()));
      link = prev.parent_link[v];
    }
    if (link == net::kInvalidLink) {
      link = static_cast<net::LinkId>(rng.uniform_index(t.link_count()));
    }
    const bool on_tree = prev.uses_link(t, link);
    const double old_cost = costs[link];
    double new_cost = levels[rng.uniform_index(levels.size())];
    if (rng.uniform_index(6) == 0) new_cost = sim::Psn::kDownLinkCost;
    if (new_cost == old_cost) continue;

    const long changes_before = inc.first_hop_changes();
    inc.set_cost(link, new_cost);
    costs[link] = new_cost;
    const SpfTree full = Spf::compute(t, root, costs);
    expect_same_tree(inc.tree(), full, where);
    ASSERT_EQ(inc.first_hop_changes() - changes_before,
              first_hop_diff(prev, full))
        << where;
    prev = full;

    if (new_cost == sim::Psn::kDownLinkCost) ++mix.down;
    if (new_cost > old_cost) {
      ++(on_tree ? mix.tree_increase : mix.other_increase);
    } else {
      ++(on_tree ? mix.tree_decrease : mix.other_decrease);
    }
  }
}

TEST(IncrementalSpfTest, TieHeavyStreamsMatchFullRecompute) {
  const Topology leo = net::TopologyBuilder::registry().build(
      net::GraphSpec{"leo-grid"}.with_nodes(64));
  util::Rng graph_rng{4242};
  const Topology random = net::builders::random_connected(
      40, 40, graph_rng, LineType::kTerrestrial56);

  // leo-grid starts from uniform costs; its stream adds a second level so
  // that tree links can also get cheaper again.
  struct Case {
    const Topology* topo;
    bool uniform_start;
    std::vector<double> levels;
  };
  const Case cases[] = {{&leo, true, {1.0, 2.0}},
                        {&random, false, {1.0, 2.0, 3.0}}};
  util::Rng rng{1989};
  for (const Case& c : cases) {
    StreamMix mix;
    const std::size_t n = c.topo->node_count();
    for (const std::size_t root : {std::size_t{0}, n / 3, n - 1}) {
      LinkCosts costs(c.topo->link_count(), 1.0);
      if (!c.uniform_start) {
        for (double& cost : costs) {
          cost = c.levels[rng.uniform_index(c.levels.size())];
        }
      }
      run_tie_stream(*c.topo, costs, static_cast<net::NodeId>(root), c.levels,
                     rng, 300, /*reset_midway=*/false, mix);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(mix.tree_increase, 0);
    EXPECT_GT(mix.tree_decrease, 0);
    EXPECT_GT(mix.other_increase, 0);
    EXPECT_GT(mix.other_decrease, 0);
    EXPECT_GT(mix.down, 0);
  }
}

/// reset() rebuilds the tree from scratch; the incremental passes after it
/// must walk the new tree, not the one the constructor built.
TEST(IncrementalSpfTest, SetCostAfterResetMatchesFullRecompute) {
  util::Rng graph_rng{77};
  const Topology t = net::builders::random_connected(
      30, 25, graph_rng, LineType::kTerrestrial56);
  util::Rng rng{78};
  StreamMix mix;
  for (const net::NodeId root : {net::NodeId{0}, net::NodeId{17}}) {
    LinkCosts costs(t.link_count());
    for (double& c : costs) c = 1.0 + static_cast<double>(rng.uniform_index(3));
    run_tie_stream(t, costs, root, {1.0, 2.0, 3.0}, rng, 200,
                   /*reset_midway=*/true, mix);
    if (HasFatalFailure()) return;
  }

  // A reset that moves most of the tree, then an increase on a link that is
  // in the new tree but was not in the old one.
  const Topology d = diamond();
  LinkCosts costs(d.link_count(), 1.0);
  costs[0] = 5.0;  // a->c->d is the tree; a->b is not
  IncrementalSpf inc{d, 0, costs};
  costs[0] = 1.0;
  costs[2] = 5.0;  // now a->b->d
  inc.reset(costs);
  costs[4] = 9.0;  // b->d, in the reset tree only
  inc.set_cost(4, 9.0);
  expect_same_tree(inc.tree(), Spf::compute(d, 0, costs), "diamond");
  EXPECT_EQ(inc.tree().first_hop[3], 2u);  // back through c
}

TEST(IncrementalSpfTest, ResetReplacesAllCosts) {
  const Topology t = diamond();
  IncrementalSpf inc{t, 0, LinkCosts(t.link_count(), 1.0)};
  LinkCosts costs(t.link_count(), 2.0);
  costs[2] = 0.5;
  inc.reset(costs);
  EXPECT_EQ(inc.tree().first_hop[3], 2u);
}

// ---- the per-thread workspace ----
//
// Every IncrementalSpf on a thread shares one pass workspace, grown to the
// largest topology the thread has seen: instances over different
// topologies interleave on it, and instances driven from different threads
// each get their own.

/// One instance under differential test, with its costs and the last full
/// recompute, so each step can check the tree and the first-hop-change
/// delta.
struct Driven {
  Driven(const Topology& t, net::NodeId root)
      : topo{&t},
        costs(t.link_count(), 1.0),
        spf{t, root, costs},
        prev{Spf::compute(t, root, costs)} {}

  const Topology* topo;
  LinkCosts costs;
  IncrementalSpf spf;
  SpfTree prev;
};

/// Applies one random cost change to `d` (half of them on a tree link; new
/// costs 1, 2 or the down cost) and compares against a full recompute.
/// Returns the first difference, or "" if there is none, so that worker
/// threads can report without gtest assertions.
std::string step_and_compare(Driven& d, util::Rng& rng) {
  const Topology& t = *d.topo;
  net::LinkId link = net::kInvalidLink;
  if (rng.uniform_index(2) == 0) {
    link = d.prev.parent_link[rng.uniform_index(t.node_count())];
  }
  if (link == net::kInvalidLink) {
    link = static_cast<net::LinkId>(rng.uniform_index(t.link_count()));
  }
  const double new_cost =
      rng.uniform_index(6) == 0
          ? sim::Psn::kDownLinkCost
          : 1.0 + static_cast<double>(rng.uniform_index(2));
  const long changes_before = d.spf.first_hop_changes();
  d.spf.set_cost(link, new_cost);
  d.costs[link] = new_cost;
  SpfTree full = Spf::compute(t, d.spf.root(), d.costs);
  const SpfTree& got = d.spf.tree();
  const auto where = [&] {
    return std::to_string(t.node_count()) + "-node root " +
           std::to_string(d.spf.root()) + ", link " + std::to_string(link) +
           ": ";
  };
  for (std::size_t v = 0; v < full.dist.size(); ++v) {
    if (got.dist[v] != full.dist[v] ||
        got.parent_link[v] != full.parent_link[v] ||
        got.first_hop[v] != full.first_hop[v] || got.hops[v] != full.hops[v]) {
      return where() + "node " + std::to_string(v) + " differs";
    }
  }
  if (d.spf.first_hop_changes() - changes_before !=
      first_hop_diff(d.prev, full)) {
    return where() + "first_hop_changes delta differs";
  }
  d.prev = std::move(full);
  return "";
}

Topology leo_grid(std::size_t nodes) {
  return net::TopologyBuilder::registry().build(
      net::GraphSpec{"leo-grid"}.with_nodes(nodes));
}

TEST(IncrementalSpfTest, InstancesSharingAThreadWorkspaceMatchFullRecompute) {
  const Topology small = leo_grid(64);
  const Topology large = leo_grid(1024);
  ASSERT_EQ(large.node_count(), 1024u);
  util::Rng rng{2718};
  // Small first, on a workspace no larger than it needs; then the large
  // instances grow it; then the small ones again, on a workspace sized for
  // 1,024 nodes whose extra marks must stay clear.
  Driven small_a{small, 0};
  Driven small_b{small, 37};
  for (int step = 0; step < 150; ++step) {
    const std::string err =
        step_and_compare(step % 2 == 0 ? small_a : small_b, rng);
    ASSERT_EQ(err, "") << "small phase, step " << step;
  }
  Driven large_a{large, 0};
  Driven large_b{large, 700};
  for (int step = 0; step < 150; ++step) {
    const std::string err =
        step_and_compare(step % 2 == 0 ? large_a : large_b, rng);
    ASSERT_EQ(err, "") << "large phase, step " << step;
  }
  for (int step = 0; step < 150; ++step) {
    Driven* const order[] = {&small_a, &large_a, &small_b, &large_b};
    const std::string err = step_and_compare(*order[step % 4], rng);
    ASSERT_EQ(err, "") << "interleaved phase, step " << step;
  }
  EXPECT_GT(small_a.spf.incremental_updates(), 0);
  EXPECT_GT(large_b.spf.incremental_updates(), 0);
}

TEST(IncrementalSpfTest, InstancesOnTwoThreadsMatchFullRecompute) {
  const Topology small = leo_grid(64);
  const Topology large = leo_grid(1024);
  // Built here, driven on two fresh threads at once: each worker's
  // workspace starts empty, is warmed by its first pass and grown by its
  // first large pass. Nine of every ten steps go to the small instance,
  // whose full recompute is cheap, so the two workers' passes overlap.
  Driven instances[] = {{small, 5}, {large, 3}, {small, 60}, {large, 1000}};
  std::string errors[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&instances, &errors, &ready, w] {
      util::Rng rng{static_cast<std::uint64_t>(31 + w)};
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      for (int step = 0; step < 2000 && errors[w].empty(); ++step) {
        Driven& d = instances[2 * w + (step % 10 == 9 ? 1 : 0)];
        errors[w] = step_and_compare(d, rng);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
  for (const Driven& d : instances) EXPECT_GT(d.spf.incremental_updates(), 0);
}

// ---- min-hop lengths ----

TEST(MinHopTest, RingDistances) {
  const Topology t = net::builders::ring(8);
  const auto d = min_hop_lengths(t);
  ASSERT_EQ(d.nodes, 8u);
  ASSERT_EQ(d.hops.size(), 64u);
  EXPECT_EQ(d.at(0, 4), 4);
  EXPECT_EQ(d.at(0, 7), 1);
  EXPECT_EQ(d.at(3, 3), 0);
  EXPECT_EQ(d.at(2, 6), 4);
}

// ---- forwarding tables / path trace ----

TEST(ForwardingTest, TraceFollowsShortestPath) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 5.0;
  const auto tables = ForwardingTables::compute_all(t, costs);
  const PathTrace trace = trace_path(t, tables, 0, 3);
  EXPECT_TRUE(trace.reached);
  EXPECT_FALSE(trace.looped);
  EXPECT_EQ(trace.hops(), 2);
  EXPECT_EQ(trace.links[0], 2u);
}

TEST(ForwardingTest, DetectsLoopFromInconsistentTables) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  auto tables = ForwardingTables::compute_all(t, costs);
  // Sabotage: b forwards to a for destination d, a forwards to b.
  tables.set_next_hop(0, 3, 0);  // a -> b
  tables.set_next_hop(1, 3, 1);  // b -> a (link 1 is b->a)
  const PathTrace trace = trace_path(t, tables, 0, 3);
  EXPECT_TRUE(trace.looped);
  EXPECT_FALSE(trace.reached);
}

TEST(ForwardingTest, ConsistentTablesNeverLoop) {
  util::Rng rng{555};
  const Topology t = net::builders::random_connected(12, 8, rng);
  LinkCosts costs(t.link_count());
  for (double& c : costs) c = 1.0 + rng.uniform(0.0, 3.0);
  const auto tables = ForwardingTables::compute_all(t, costs);
  for (net::NodeId s = 0; s < t.node_count(); ++s) {
    for (net::NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      const PathTrace trace = trace_path(t, tables, s, d);
      EXPECT_TRUE(trace.reached);
      EXPECT_FALSE(trace.looped);
    }
  }
}

}  // namespace
}  // namespace arpanet::routing
