// Per-layer replays: each feeds a stream captured from a traced pass (or a
// synthetic hold model at the pass's observed queue depth) through one
// layer's public functions and times that layer alone.
#pragma once

#include <cstdint>
#include <vector>

#include "src/metrics/link_metric.h"
#include "src/net/topology.h"
#include "src/obs/trace_sink.h"
#include "src/routing/spf.h"

namespace perfbench {

namespace arpa = ::arpanet;

/// One reported cost from the trace, in network-wide origination order.
struct CostSample {
  std::int64_t at_us = 0;
  arpa::net::NodeId origin = arpa::net::kInvalidNode;
  arpa::net::LinkId link = arpa::net::kInvalidLink;
  double cost = 0.0;
};

/// Every reported cost the sink captured, ordered by (time, originating
/// PSN, link) — the order in which each update's reports were applied.
[[nodiscard]] std::vector<CostSample> cost_stream(
    const arpa::net::Topology& topo, const arpa::obs::RecordingTraceSink& sink);

struct SpfReplay {
  double ctor_s = 0.0;    ///< IncrementalSpf construction at every root
  double replay_s = 0.0;  ///< set_cost over the horizon's stream, every root
  std::uint64_t incremental = 0;
  std::uint64_t skipped = 0;
  /// Sampled roots whose replayed tree equals the live tree at quiescence.
  std::uint64_t roots_matched = 0;
  std::uint64_t roots_sampled = 0;
};

/// Replays `stream` through IncrementalSpf::set_cost at every root. Samples
/// up to `horizon_us` are timed; the rest (the drain) are applied untimed at
/// the sampled roots before their trees are compared with `live_trees`.
[[nodiscard]] SpfReplay replay_spf(
    const arpa::net::Topology& topo, arpa::metrics::MetricKind metric,
    const std::vector<CostSample>& stream, std::int64_t horizon_us,
    const std::vector<arpa::net::NodeId>& sample_roots,
    const std::vector<arpa::routing::SpfTree>& live_trees);

struct FloodReplay {
  double seconds = 0.0;
  std::uint64_t copies = 0;
  /// Every node accepted every update exactly once.
  bool accepted_once = false;
};

/// Regroups the horizon's stream into updates and offers each PSN one copy
/// per in-link through FloodingState::accept (the first is accepted, the
/// rest are duplicates, as in flooding).
[[nodiscard]] FloodReplay replay_flooding(const arpa::net::Topology& topo,
                                          const std::vector<CostSample>& stream,
                                          std::int64_t horizon_us);

struct MetricReplay {
  double seconds = 0.0;
  std::uint64_t periods = 0;  ///< link measurement periods replayed
  double checksum = 0.0;      ///< sum of the replayed costs
};

/// Feeds every link's captured per-period utilization up to `horizon_us`
/// through core::HnMetric::update_from_utilization.
[[nodiscard]] MetricReplay replay_metric(
    const arpa::net::Topology& topo, const arpa::obs::RecordingTraceSink& sink,
    std::int64_t horizon_us);

struct QueueReplay {
  double seconds = 0.0;
  std::uint64_t ops = 0;  ///< schedule plus pop calls
  std::uint64_t checksum = 0;  ///< sum of popped event indices
};

/// Hold model on a bare sim::EventQueue: prefill `depth` events, then pop
/// one and schedule one `pairs` times, gaps uniform on [0, 2 * mean_gap_us)
/// so the population and mean residence match the observed run.
[[nodiscard]] QueueReplay replay_event_queue(std::uint64_t depth,
                                             double mean_gap_us,
                                             std::uint64_t pairs);

}  // namespace perfbench
