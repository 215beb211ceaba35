#include "src/routing/spf.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "src/util/check.h"

namespace arpanet::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// (dist, node) binary min-heap over a plain vector. std::push_heap/pop_heap
// sift exactly like std::priority_queue's, but the vector's capacity can be
// reused across passes (SpfScratch::heap).
using HeapEntry = std::pair<double, net::NodeId>;
using HeapVec = std::vector<HeapEntry>;

// ARPALINT-HOTPATH-BEGIN
void heap_push(HeapVec& heap, double dist, net::NodeId node) {
  // ARPALINT-ALLOW(hot-path-alloc): scratch heap retains capacity across passes
  heap.emplace_back(dist, node);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

HeapEntry heap_pop(HeapVec& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const HeapEntry e = heap.back();
  heap.pop_back();
  return e;
}
// ARPALINT-HOTPATH-END

void check_costs(const net::Topology& topo, std::span<const double> costs) {
  if (costs.size() != topo.link_count()) {
    throw std::invalid_argument("link cost vector size != link count");
  }
  for (const double c : costs) {
    if (!(c > 0.0)) throw std::invalid_argument("link costs must be positive");
  }
}

// ARPALINT-HOTPATH-BEGIN
/// Canonical parent of v from final distances: the lowest-id in-link (u,v)
/// with dist[u] + cost == dist[v], returned with u (kInvalidLink for the
/// root and unreachable nodes).
///
/// Because relaxations only ever propagate from settled nodes, the
/// achieving sum is bit-exact and the equality test is safe. Deriving
/// structure from distances (rather than keeping whatever parents
/// Dijkstra's settle order happened to produce) is what makes every PSN
/// compute the identical tree from identical costs.
std::pair<net::LinkId, net::NodeId> canonical_parent(
    const net::Topology& topo, std::span<const double> costs,
    const SpfTree& tree, net::NodeId v) {
  std::pair<net::LinkId, net::NodeId> best{net::kInvalidLink,
                                           net::kInvalidNode};
  const double dv = tree.dist[v];
  if (v == tree.root || dv == kInf) return best;
  const std::span<const net::LinkId> ins = topo.in_links(v);
  const std::span<const net::NodeId> froms = topo.out_targets(v);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const double du = tree.dist[froms[i]];
    if (du == kInf) continue;
    if (du + costs[ins[i]] == dv && ins[i] < best.first) {
      best = {ins[i], froms[i]};
    }
  }
  return best;
}

/// Hop count and first hop of a non-root node, from its parent's.
std::pair<int, net::LinkId> hops_and_first_hop(const net::Topology& topo,
                                               const SpfTree& tree,
                                               net::NodeId v) {
  const net::LinkId pl = tree.parent_link[v];
  if (pl == net::kInvalidLink) return {-1, net::kInvalidLink};
  const net::NodeId p = topo.link(pl).from;
  // Parents are finished before their children, so the parent's structure
  // must already exist — a -1 here means the distance array is
  // inconsistent with the parent derivation.
  ARPA_DCHECK(tree.hops[p] >= 0) << "node " << v << " derived a parent ("
                                 << p << ") with no structure yet";
  return {tree.hops[p] + 1, p == tree.root ? pl : tree.first_hop[p]};
}
// ARPALINT-HOTPATH-END

}  // namespace

struct SpfScratch {
  /// Binary min-heap of (dist, node), driven via heap_push/heap_pop.
  HeapVec heap;
  /// 1 iff the node is on `touched` (plain bytes, not vector<bool>).
  std::vector<std::uint8_t> mark;
  /// Every node the current update marked, in marking order: first the
  /// nodes whose distance changed (and, on a decrease, the further
  /// candidates for a new parent), then the descendants whose hops or first
  /// hop moved. The update clears the marks through this list.
  std::vector<net::NodeId> touched;

  /// Grows the workspace to hold any pass over `topo`; never shrinks. A
  /// Dijkstra pass pushes each link at most once (<= links), and the
  /// structure repair queues each node at most once (<= nodes). Only called
  /// between passes, when every mark is zero.
  void fit(const net::Topology& topo) {
    const std::size_t n = topo.node_count();
    if (mark.size() < n) mark.resize(n, 0);
    heap.reserve(std::max(topo.link_count(), n));
    touched.reserve(n);
  }

  // ARPALINT-HOTPATH-BEGIN
  /// Marks v and queues it on `touched`, unless it is the root or marked.
  void touch(net::NodeId root, net::NodeId v) {
    if (v == root || mark[v] != 0) return;
    mark[v] = 1;
    // ARPALINT-ALLOW(hot-path-alloc): fit() reserved node_count; each node once
    touched.push_back(v);
  }
  // ARPALINT-HOTPATH-END
};

namespace {

/// The calling thread's workspace, grown to fit `topo`. One pass runs on a
/// thread at a time, so every IncrementalSpf on the thread shares it.
SpfScratch& thread_scratch(const net::Topology& topo) {
  thread_local SpfScratch scratch;
  scratch.fit(topo);
  return scratch;
}

}  // namespace

SpfTree Spf::compute(const net::Topology& topo, net::NodeId root,
                     std::span<const double> link_costs) {
  check_costs(topo, link_costs);
  const std::size_t n = topo.node_count();
  if (root >= n) throw std::out_of_range("SPF root out of range");

  SpfTree tree;
  tree.root = root;
  tree.dist.assign(n, kInf);
  tree.parent_link.assign(n, net::kInvalidLink);
  tree.first_hop.assign(n, net::kInvalidLink);
  tree.hops.assign(n, -1);
  tree.dist[root] = 0.0;
  tree.hops[root] = 0;

  HeapVec heap;
  heap_push(heap, 0.0, root);
  std::vector<bool> settled(n, false);
  while (!heap.empty()) {
    const auto [d, u] = heap_pop(heap);
    if (settled[u]) continue;
    settled[u] = true;
    // Structure is derived in settle order. Dijkstra settles in
    // nondecreasing distance and positive costs make a parent strictly
    // closer than its child, so u's in-neighbours that can tie are final
    // and its parent's hops and first hop already exist.
    if (u != root) {
      tree.parent_link[u] = canonical_parent(topo, link_costs, tree, u).first;
      std::tie(tree.hops[u], tree.first_hop[u]) =
          hops_and_first_hop(topo, tree, u);
    }
    // Parallel CSR slices: the relaxation touches only the link id (cost
    // index) and the target node, never the 48-byte Link record.
    const std::span<const net::LinkId> lids = topo.out_links(u);
    const std::span<const net::NodeId> tos = topo.out_targets(u);
    for (std::size_t i = 0; i < lids.size(); ++i) {
      const double nd = d + link_costs[lids[i]];
      if (nd < tree.dist[tos[i]]) {
        tree.dist[tos[i]] = nd;
        heap_push(heap, nd, tos[i]);
      }
    }
  }
  return tree;
}

IncrementalSpf::IncrementalSpf(const net::Topology& topo, net::NodeId root,
                               LinkCosts costs)
    : topo_{&topo},
      costs_{std::move(costs)},
      tree_{Spf::compute(topo, root, costs_)} {
  ++full_;
  build_child_index();
  // Warm this thread's workspace now, so the first incremental update
  // allocates nothing even when it arrives long after construction (the
  // AllocGuard window assumes exactly this).
  thread_scratch(topo);
}

void IncrementalSpf::reset(LinkCosts costs) {
  tree_ = Spf::compute(*topo_, tree_.root, costs);
  costs_ = std::move(costs);
  ++full_;
  build_child_index();
}

void IncrementalSpf::build_child_index() {
  const std::size_t n = topo_->node_count();
  first_child_.assign(n, net::kInvalidNode);
  next_sib_.assign(n, net::kInvalidNode);
  for (net::NodeId v = 0; v < n; ++v) {
    const net::LinkId pl = tree_.parent_link[v];
    if (pl != net::kInvalidLink) link_child(topo_->link(pl).from, v);
  }
}

// ARPALINT-HOTPATH-BEGIN
void IncrementalSpf::link_child(net::NodeId parent, net::NodeId child) {
  next_sib_[child] = first_child_[parent];
  first_child_[parent] = child;
}

void IncrementalSpf::unlink_child(net::NodeId parent, net::NodeId child) {
  net::NodeId* slot = &first_child_[parent];
  while (*slot != child) {
    ARPA_DCHECK(*slot != net::kInvalidNode)
        << "node " << child << " missing from the child list of " << parent;
    slot = &next_sib_[*slot];
  }
  *slot = next_sib_[child];
}

void IncrementalSpf::set_cost(net::LinkId link, double new_cost) {
  if (!(new_cost > 0.0)) throw std::invalid_argument("link costs must be positive");
  const double old_cost = costs_.at(link);
  if (new_cost == old_cost) return;

  if (new_cost > old_cost && !tree_.uses_link(*topo_, link)) {
    // A cost increase on a link not in the tree cannot improve or invalidate
    // any path; the PSN skips all work (paper section 2.2).
    costs_[link] = new_cost;
    ++skipped_;
    return;
  }

  costs_[link] = new_cost;
  ++incremental_;
  SpfScratch& scratch = thread_scratch(*topo_);
  if (new_cost < old_cost) {
    decrease_pass(scratch, link);
  } else {
    increase_pass(scratch, link);
  }
  repair_structure(scratch);
}

void IncrementalSpf::decrease_pass(SpfScratch& scratch, net::LinkId link) {
  const net::Link& l = topo_->link(link);
  auto& touched = scratch.touched;
  if (tree_.dist[l.from] != kInf) {
    const double cand = tree_.dist[l.from] + costs_[link];
    HeapVec& heap = scratch.heap;
    heap.clear();
    if (cand < tree_.dist[l.to]) heap_push(heap, cand, l.to);
    while (!heap.empty()) {
      const auto [d, w] = heap_pop(heap);
      if (d >= tree_.dist[w]) continue;
      tree_.dist[w] = d;
      ++nodes_touched_;
      scratch.touch(tree_.root, w);
      const std::span<const net::LinkId> lids = topo_->out_links(w);
      const std::span<const net::NodeId> tos = topo_->out_targets(w);
      for (std::size_t i = 0; i < lids.size(); ++i) {
        const double nd = d + costs_[lids[i]];
        if (nd < tree_.dist[tos[i]]) heap_push(heap, nd, tos[i]);
      }
    }
  }

  // Parent candidates beyond the lowered nodes: their out-neighbours, which
  // may now tie through them, and the link's head, whose in-link got
  // cheaper even if its distance did not move.
  const std::size_t lowered = touched.size();
  for (std::size_t i = 0; i < lowered; ++i) {
    for (const net::NodeId w : topo_->out_targets(touched[i])) {
      scratch.touch(tree_.root, w);
    }
  }
  scratch.touch(tree_.root, l.to);
}

void IncrementalSpf::increase_pass(SpfScratch& scratch, net::LinkId link) {
  // Affected region: the subtree hanging below the head of the increased
  // link, walked breadth-first on the child index with the touched list as
  // the queue. Everything else keeps its distance.
  auto& touched = scratch.touched;
  const auto& mark = scratch.mark;
  scratch.touch(tree_.root, topo_->link(link).to);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    for (net::NodeId c = first_child_[touched[i]]; c != net::kInvalidNode;
         c = next_sib_[c]) {
      scratch.touch(tree_.root, c);
    }
  }
  for (const net::NodeId v : touched) tree_.dist[v] = kInf;
  nodes_touched_ += static_cast<long>(touched.size());

  // Re-run Dijkstra over the affected region, seeded from its in-links out
  // of the unaffected frontier (which includes the increased link itself).
  HeapVec& heap = scratch.heap;
  heap.clear();
  for (const net::NodeId v : touched) {
    const std::span<const net::LinkId> ins = topo_->in_links(v);
    const std::span<const net::NodeId> froms = topo_->out_targets(v);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      if (mark[froms[i]] != 0 || tree_.dist[froms[i]] == kInf) continue;
      heap_push(heap, tree_.dist[froms[i]] + costs_[ins[i]], v);
    }
  }
  while (!heap.empty()) {
    const auto [d, w] = heap_pop(heap);
    if (d >= tree_.dist[w]) continue;
    tree_.dist[w] = d;
    const std::span<const net::LinkId> lids = topo_->out_links(w);
    const std::span<const net::NodeId> tos = topo_->out_targets(w);
    for (std::size_t i = 0; i < lids.size(); ++i) {
      if (mark[tos[i]] == 0) continue;
      const double nd = d + costs_[lids[i]];
      if (nd < tree_.dist[tos[i]]) heap_push(heap, nd, tos[i]);
    }
  }
}

/// Brings parents, hops and first hops in line with the new distances.
///
/// Only the touched nodes can have a new canonical parent: a parent changes
/// only when the node's distance, an in-neighbour's distance or an in-link's
/// cost changed. On an increase the touched subtree covers all three (a
/// node outside it only loses ties through the subtree, never its lowest-id
/// one); a decrease adds the out-neighbours and the link's head. Hops and
/// first hops then move only below a node whose own values moved, so they
/// are recomputed down those subtrees in distance order — parents strictly
/// before children — and each node is queued at most once.
void IncrementalSpf::repair_structure(SpfScratch& scratch) {
  auto& touched = scratch.touched;
  auto& mark = scratch.mark;
  for (const net::NodeId v : touched) {
    const auto [parent_link, parent] =
        canonical_parent(*topo_, costs_, tree_, v);
    const net::LinkId old_link = tree_.parent_link[v];
    if (parent_link == old_link) continue;
    if (old_link != net::kInvalidLink) {
      unlink_child(topo_->link(old_link).from, v);
    }
    if (parent_link != net::kInvalidLink) link_child(parent, v);
    tree_.parent_link[v] = parent_link;
  }

  HeapVec& heap = scratch.heap;
  heap.clear();
  for (const net::NodeId v : touched) heap_push(heap, tree_.dist[v], v);
  while (!heap.empty()) {
    const net::NodeId v = heap_pop(heap).second;
    const auto [hops, first_hop] = hops_and_first_hop(*topo_, tree_, v);
    if (hops == tree_.hops[v] && first_hop == tree_.first_hop[v]) continue;
    if (first_hop != tree_.first_hop[v]) ++first_hop_changes_;
    tree_.hops[v] = hops;
    tree_.first_hop[v] = first_hop;
    // A marked child is still queued: it is farther than v.
    for (net::NodeId c = first_child_[v]; c != net::kInvalidNode;
         c = next_sib_[c]) {
      if (mark[c] != 0) continue;
      scratch.touch(tree_.root, c);
      heap_push(heap, tree_.dist[c], c);
    }
  }

  for (const net::NodeId v : touched) mark[v] = 0;
  touched.clear();
}
// ARPALINT-HOTPATH-END

MinHopTable min_hop_lengths(const net::Topology& topo) {
  const std::size_t n = topo.node_count();
  // A hop count is at most n - 1, so it fits below the sentinel.
  ARPA_CHECK(n <= MinHopTable::kUnreachable)
      << n << " nodes: min-hop counts do not fit in 16 bits";
  MinHopTable table{n, std::vector<std::uint16_t>(n * n, MinHopTable::kUnreachable)};
  std::vector<net::NodeId> queue;
  queue.reserve(n);
  for (net::NodeId src = 0; src < n; ++src) {
    std::uint16_t* row = table.hops.data() + static_cast<std::size_t>(src) * n;
    row[src] = 0;
    queue.assign(1, src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const net::NodeId u = queue[head];
      for (const net::NodeId v : topo.out_targets(u)) {
        if (row[v] == MinHopTable::kUnreachable) {
          row[v] = static_cast<std::uint16_t>(row[u] + 1);
          queue.push_back(v);
        }
      }
    }
  }
  return table;
}

}  // namespace arpanet::routing
