// Per-window measurement aggregates for one Network run.
//
// Split out of sim/network.h so the sharded engine's per-shard state
// (sim/shard.h) can hold its own copy of each aggregate without pulling in
// the whole Network interface. Every struct here merges associatively:
// counts add, Welford summaries combine, histograms add bin-wise — which is
// what lets K shards record independently and the coordinator present one
// network-wide view on demand.

#pragma once

#include <cstdint>

#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace arpanet::sim {

struct NetworkStats {
  long packets_generated = 0;
  long packets_delivered = 0;
  long packets_dropped_queue = 0;       ///< tail drops (congestion)
  long packets_dropped_unreachable = 0; ///< no route
  long packets_dropped_loop = 0;        ///< hop budget exceeded (routing loop)
  double bits_delivered = 0.0;
  stats::Summary one_way_delay_ms;
  /// One-way delay distribution (0-5000 ms, 2 ms bins) for percentiles.
  stats::Histogram delay_histogram_ms{0.0, 5000.0, 2500};
  stats::Summary path_hops;
  stats::Summary min_hops;  ///< min-hop length of each delivered packet's pair
  long updates_originated = 0;
  long update_packets_sent = 0;  ///< flooded transmissions (overhead)

  /// Folds another shard's window into this one.
  void merge(const NetworkStats& other) {
    packets_generated += other.packets_generated;
    packets_delivered += other.packets_delivered;
    packets_dropped_queue += other.packets_dropped_queue;
    packets_dropped_unreachable += other.packets_dropped_unreachable;
    packets_dropped_loop += other.packets_dropped_loop;
    bits_delivered += other.bits_delivered;
    one_way_delay_ms.merge(other.one_way_delay_ms);
    delay_histogram_ms.merge(other.delay_histogram_ms);
    path_hops.merge(other.path_hops);
    min_hops.merge(other.min_hops);
    updates_originated += other.updates_originated;
    update_packets_sent += other.update_packets_sent;
  }
};

/// Routing-stability telemetry for the measurement window (reset with the
/// other stats after warm-up). The quantities the paper's stability claims
/// are stated in: how much routes move, how far a cost may jump per update
/// period, whether the flat region really is flat, and how quickly the
/// network settles after the last fault transition.
struct StabilityStats {
  /// Destinations whose first hop changed, summed over every PSN tree
  /// update in the window.
  long route_changes = 0;
  /// Measurement periods in which a link's cost moved while its utilization
  /// sat inside the metric's flat region (paper section 4.2: the cost
  /// should be constant there; movement means decay-in-progress or noise).
  long flat_oscillations = 0;
  /// Largest per-period cost movement observed on any up link.
  double max_movement = 0.0;
  /// Fault actions dispatched inside the window.
  long faults_applied = 0;
  /// Seconds from the window's last fault action to the last first-hop
  /// change anywhere — the reconvergence time after the final heal. Zero
  /// when the window saw no fault.
  double reconverge_sec = 0.0;
};

}  // namespace arpanet::sim
