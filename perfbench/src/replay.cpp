#include "replay.h"

#include <algorithm>
#include <cmath>

#include "scenario_pass.h"
#include "src/core/hn_metric.h"
#include "src/core/line_params.h"
#include "src/obs/stopwatch.h"
#include "src/routing/flooding.h"
#include "src/sim/event_queue.h"

namespace perfbench {

namespace {

using arpa::net::LinkId;
using arpa::net::NodeId;
using arpa::obs::Stopwatch;

bool same_tree(const arpa::routing::SpfTree& a,
               const arpa::routing::SpfTree& b) {
  return a.root == b.root && a.dist == b.dist &&
         a.parent_link == b.parent_link && a.first_hop == b.first_hop &&
         a.hops == b.hops;
}

std::size_t horizon_end(const std::vector<CostSample>& stream,
                        std::int64_t horizon_us) {
  return static_cast<std::size_t>(
      std::upper_bound(stream.begin(), stream.end(), horizon_us,
                       [](std::int64_t t, const CostSample& s) {
                         return t < s.at_us;
                       }) -
      stream.begin());
}

/// Discards every event; the hold model never fires what it pops.
class NullSink final : public arpa::sim::EventSink {
 public:
  void handle_event(arpa::sim::SimEvent& ev) override { (void)ev; }
};

}  // namespace

std::vector<CostSample> cost_stream(const arpa::net::Topology& topo,
                                    const arpa::obs::RecordingTraceSink& sink) {
  std::vector<CostSample> stream;
  for (LinkId l = 0; l < sink.link_count(); ++l) {
    for (const auto& [at, cost] : sink.costs(l)) {
      stream.push_back({at.us(), topo.link(l).from, l, cost});
    }
  }
  std::sort(stream.begin(), stream.end(),
            [](const CostSample& a, const CostSample& b) {
              if (a.at_us != b.at_us) return a.at_us < b.at_us;
              if (a.origin != b.origin) return a.origin < b.origin;
              return a.link < b.link;
            });
  return stream;
}

SpfReplay replay_spf(const arpa::net::Topology& topo,
                     arpa::metrics::MetricKind metric,
                     const std::vector<CostSample>& stream,
                     std::int64_t horizon_us,
                     const std::vector<NodeId>& sample_roots,
                     const std::vector<arpa::routing::SpfTree>& live_trees) {
  const arpa::routing::LinkCosts initial = initial_costs(topo, metric);
  const std::size_t timed = horizon_end(stream, horizon_us);
  SpfReplay out;
  out.roots_sampled = sample_roots.size();
  for (NodeId root = 0; root < topo.node_count(); ++root) {
    Stopwatch watch;
    arpa::routing::IncrementalSpf spf{topo, root, initial};
    out.ctor_s += watch.seconds();
    watch.restart();
    for (std::size_t i = 0; i < timed; ++i) {
      spf.set_cost(stream[i].link, stream[i].cost);
    }
    out.replay_s += watch.seconds();
    out.incremental += static_cast<std::uint64_t>(spf.incremental_updates());
    out.skipped += static_cast<std::uint64_t>(spf.skipped_updates());

    const auto sampled =
        std::find(sample_roots.begin(), sample_roots.end(), root);
    if (sampled == sample_roots.end()) continue;
    for (std::size_t i = timed; i < stream.size(); ++i) {
      spf.set_cost(stream[i].link, stream[i].cost);
    }
    if (same_tree(spf.tree(),
                  live_trees[static_cast<std::size_t>(
                      sampled - sample_roots.begin())])) {
      ++out.roots_matched;
    }
  }
  return out;
}

FloodReplay replay_flooding(const arpa::net::Topology& topo,
                            const std::vector<CostSample>& stream,
                            std::int64_t horizon_us) {
  const std::size_t n = topo.node_count();
  const std::size_t timed = horizon_end(stream, horizon_us);
  // One update per (time, origin) group: a PSN reports all its links at once.
  std::vector<arpa::routing::RoutingUpdate> updates;
  std::vector<std::uint64_t> seq(n, 0);
  for (std::size_t i = 0; i < timed; ++i) {
    const CostSample& s = stream[i];
    if (i == 0 || s.at_us != stream[i - 1].at_us ||
        s.origin != stream[i - 1].origin) {
      updates.push_back({s.origin, ++seq[s.origin], {}});
    }
    updates.back().reports.push_back({s.link, s.cost});
  }
  std::vector<arpa::routing::FloodingState> states(
      n, arpa::routing::FloodingState{n});

  FloodReplay out;
  const Stopwatch watch;
  for (const arpa::routing::RoutingUpdate& u : updates) {
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t copies = topo.out_links(v).size();
      for (std::size_t c = 0; c < copies; ++c) {
        (void)states[v].accept(u);
      }
      out.copies += copies;
    }
  }
  out.seconds = watch.seconds();
  out.accepted_once = std::all_of(
      states.begin(), states.end(),
      [&](const arpa::routing::FloodingState& st) {
        return st.accepted() == static_cast<long>(updates.size());
      });
  return out;
}

MetricReplay replay_metric(const arpa::net::Topology& topo,
                           const arpa::obs::RecordingTraceSink& sink,
                           std::int64_t horizon_us) {
  const arpa::core::LineParamsTable params =
      arpa::core::LineParamsTable::arpanet_defaults();
  MetricReplay out;
  const Stopwatch watch;
  for (LinkId l = 0; l < sink.link_count(); ++l) {
    const arpa::net::Link& link = topo.link(l);
    arpa::core::HnMetric metric{params.for_type(link.type), link.rate,
                                link.prop_delay};
    for (const auto& [at, busy] : sink.utilizations(l)) {
      if (at.us() > horizon_us) break;
      out.checksum += metric.update_from_utilization(busy);
      ++out.periods;
    }
  }
  out.seconds = watch.seconds();
  return out;
}

QueueReplay replay_event_queue(std::uint64_t depth, double mean_gap_us,
                               std::uint64_t pairs) {
  const auto span = static_cast<std::uint64_t>(
      std::max(2.0, std::round(2.0 * mean_gap_us)));
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto gap = [&state, span] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return arpa::util::SimTime::from_us(
        static_cast<std::int64_t>((state >> 33) % span));
  };
  NullSink sink;
  arpa::sim::EventQueue queue;
  std::uint64_t checksum = 0;
  const Stopwatch watch;
  for (std::uint64_t i = 0; i < depth; ++i) {
    queue.schedule(gap(), arpa::sim::SimEvent::source_tick(
                              sink, static_cast<std::uint32_t>(i)));
  }
  for (std::uint64_t i = 0; i < pairs; ++i) {
    arpa::util::SimTime at;
    const arpa::sim::SimEvent ev = queue.pop(at);
    checksum += ev.index();
    queue.schedule(at + gap(), arpa::sim::SimEvent::source_tick(
                                   sink, static_cast<std::uint32_t>(i)));
  }
  QueueReplay out;
  out.seconds = watch.seconds();
  out.ops = depth + 2 * pairs;
  out.checksum = checksum;
  return out;
}

}  // namespace perfbench
