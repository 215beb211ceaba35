// Shortest Path First route computation.
//
// This is the route-computation half of the ARPANET scheme installed in May
// 1979 (McQuillan, Richer & Rosen): every PSN knows the full topology and all
// link costs, and computes a shortest-path tree rooted at itself with
// Dijkstra's algorithm. The July 1987 revision this library reproduces
// changed only the link costs fed into this computation, never the
// computation itself (paper abstract, section 4).
//
// Two entry points are provided:
//   * Spf::compute       — one-shot Dijkstra, used by analysis code.
//   * IncrementalSpf     — the PSN's resident algorithm, which "attempts to
//     perform only incremental adjustments necessitated by a link cost
//     change, e.g. if a routing update reports an increase in the cost for a
//     link not in the tree, the algorithm does not recompute any part of the
//     tree" (paper section 2.2).
//
// Determinism: ties between equal-cost paths are broken canonically (parent =
// lowest-id in-link achieving the node's distance), so every PSN derives the
// same tree from the same costs; with destination-only packet headers this
// consistency is what keeps forwarding loop-free between updates, because
// shortest paths are hereditary (paper section 4.1).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/net/topology.h"

namespace arpanet::routing {

/// Link costs in routing units, indexed by LinkId. Costs must be positive.
using LinkCosts = std::vector<double>;

/// A shortest-path tree rooted at one node.
struct SpfTree {
  net::NodeId root = net::kInvalidNode;
  /// Distance from root, per node; +inf if unreachable.
  std::vector<double> dist;
  /// The in-link on the shortest path to each node (kInvalidLink for the
  /// root and unreachable nodes).
  std::vector<net::LinkId> parent_link;
  /// The root's outgoing link used to reach each node — the forwarding
  /// decision (kInvalidLink for the root and unreachable nodes).
  std::vector<net::LinkId> first_hop;
  /// Path length in hops from the root, per node (-1 if unreachable; 0 for
  /// the root).
  std::vector<int> hops;

  /// True iff `link` is a tree edge (the parent link of its head node).
  [[nodiscard]] bool uses_link(const net::Topology& topo, net::LinkId link) const {
    return parent_link[topo.link(link).to] == link;
  }
};

/// One-shot SPF.
class Spf {
 public:
  [[nodiscard]] static SpfTree compute(const net::Topology& topo, net::NodeId root,
                                       std::span<const double> link_costs);
};

/// Workspace for the incremental passes (Dijkstra heap, node marks and the
/// touched list), defined in spf.cpp. It is per thread, not per PSN: only
/// one pass runs on a thread at a time, so every IncrementalSpf on that
/// thread shares one workspace sized to the largest topology the thread has
/// seen. The constructor warms the constructing thread's workspace, so a
/// steady-state cost change there allocates nothing; a shard worker warms
/// its own on its first pass. The marks are all zero between passes, so no
/// pass pays O(n) to reset them.
struct SpfScratch;

/// Resident incremental SPF, as run inside a PSN.
///
/// Maintains the tree across a stream of single-link cost changes. Distances
/// are updated with localized Dijkstra passes touching only affected nodes;
/// the canonical parent is then re-derived for just the nodes whose parent
/// could have changed, and hops/first hops are recomputed down the subtrees
/// that moved, so an update costs work proportional to the nodes it changes
/// times their degree, never O(n). The result is always bit-identical to a
/// full Spf::compute with the same costs (verified by property tests).
/// Counters expose how much work each class of update required.
class IncrementalSpf {
 public:
  IncrementalSpf(const net::Topology& topo, net::NodeId root, LinkCosts costs);

  [[nodiscard]] const SpfTree& tree() const { return tree_; }
  [[nodiscard]] std::span<const double> costs() const { return costs_; }
  [[nodiscard]] net::NodeId root() const { return tree_.root; }

  /// Applies one link-cost change and updates the tree.
  void set_cost(net::LinkId link, double new_cost);

  /// Replaces all costs (e.g. first full update after startup).
  void reset(LinkCosts costs);

  /// Full Dijkstra recomputations (construction plus every reset()).
  [[nodiscard]] long full_recomputes() const { return full_; }
  /// Updates that required no distance work at all (cost increase on a
  /// non-tree link — the paper's example).
  [[nodiscard]] long skipped_updates() const { return skipped_; }
  /// Updates handled by a localized pass.
  [[nodiscard]] long incremental_updates() const { return incremental_; }
  /// Total nodes whose distance was recomputed across incremental passes.
  [[nodiscard]] long nodes_touched() const { return nodes_touched_; }
  /// Cumulative count of destinations whose first hop changed across all
  /// updates — the stability layer's route-change metric. Monotone;
  /// callers diff before/after a batch of set_cost calls.
  [[nodiscard]] long first_hop_changes() const { return first_hop_changes_; }

 private:
  void build_child_index();
  void link_child(net::NodeId parent, net::NodeId child);
  void unlink_child(net::NodeId parent, net::NodeId child);
  void decrease_pass(SpfScratch& scratch, net::LinkId link);
  void increase_pass(SpfScratch& scratch, net::LinkId link);
  void repair_structure(SpfScratch& scratch);

  const net::Topology* topo_;
  LinkCosts costs_;
  SpfTree tree_;
  /// Child index of tree_, kept in step with parent_link: the children of
  /// u are first_child_[u], next_sib_[first_child_[u]], ... up to
  /// kInvalidNode, in no particular order. A node's children arrive over
  /// distinct out-links, so unlinking one walks at most the parent's degree.
  std::vector<net::NodeId> first_child_;
  std::vector<net::NodeId> next_sib_;
  long full_ = 0;
  long skipped_ = 0;
  long incremental_ = 0;
  long nodes_touched_ = 0;
  long first_hop_changes_ = 0;
};

/// Hop counts of minimum-hop paths between every ordered pair of nodes, as
/// one row-major n x n array of 16-bit counts. Used for the "Internode
/// Minimum Path" row of Table 1.
struct MinHopTable {
  /// Entry for a destination the source cannot reach.
  static constexpr std::uint16_t kUnreachable = 0xFFFF;

  std::size_t nodes = 0;
  /// hops[src * nodes + dst].
  std::vector<std::uint16_t> hops;

  [[nodiscard]] std::uint16_t at(net::NodeId src, net::NodeId dst) const {
    return hops[static_cast<std::size_t>(src) * nodes + dst];
  }
};

/// Minimum-hop counts from every node (one BFS per source).
[[nodiscard]] MinHopTable min_hop_lengths(const net::Topology& topo);

}  // namespace arpanet::routing
