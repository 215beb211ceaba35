// PSN: one packet-switching node.
//
// Each PSN owns, exactly as in the ARPANET scheme:
//   * a resident incremental SPF over its own copy of the network cost map,
//   * destination-based single-path forwarding (first hop from its tree),
//   * per-outgoing-link output queues — routing updates at high priority,
//     data FIFO behind them, finite data buffering with tail drop,
//   * the 10-second delay measurement and the link metric (min-hop, D-SPF
//     or HN-SPF) feeding the significance filter,
//   * origin + flood duplicate-suppression state for routing updates.
//
// The PSN calls back into Network for scheduling, packet hand-off to the
// neighbor PSN, and statistics.

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/metrics/delay_measurement.h"
#include "src/metrics/link_metric.h"
#include "src/net/topology.h"
#include "src/routing/algorithm.h"
#include "src/routing/flooding.h"
#include "src/routing/multipath.h"
#include "src/routing/significance.h"
#include "src/routing/spf.h"
#include "src/sim/event.h"
#include "src/sim/event_queue.h"
#include "src/sim/packet.h"
#include "src/sim/ring_queue.h"

namespace arpanet::sim {

class Network;

class Psn {
 public:
  Psn(Network& net, net::NodeId id, routing::LinkCosts initial_costs);

  /// Schedules the first measurement period (staggered per node).
  void start();

  /// A locally attached host hands in a packet for `dst`.
  void originate_data(net::NodeId dst, double bits);

  /// Host layer entry: injects a pre-framed packet (message fields set by
  /// the caller); the PSN stamps id/src/created and forwards it.
  void originate_packet(Packet pkt);

  /// A pooled packet arrives from a neighbor over `via_link` (an in-link of
  /// this node). Ownership of the handle transfers to the PSN.
  void receive(PacketHandle pkt, net::LinkId via_link);

  // ---- typed-event completions (called by Network::handle_event) ----
  /// The transmitter on `link` finished serializing the pooled packet.
  void on_transmit_complete(net::LinkId link, util::SimTime queue_delay,
                            util::SimTime tx_time, bool is_update,
                            PacketHandle pkt);
  /// The 10-second measurement-period timer fired.
  void measurement_period();
  /// The 1969 distance-vector exchange timer fired.
  void dv_tick();

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const routing::SpfTree& tree() const { return spf_.tree(); }
  [[nodiscard]] const routing::IncrementalSpf& spf() const { return spf_; }
  [[nodiscard]] long updates_originated() const { return updates_originated_; }

  /// Tie key for the next event scheduled on this node's behalf — its own
  /// timers and completions, the arrivals it sends to neighbours, its
  /// traffic source's ticks (sim/event_queue.h, event_key). The count is
  /// per node, and only the node's own shard advances it, so simultaneous
  /// events order the same way at any shard count.
  [[nodiscard]] std::uint64_t next_event_key() {
    return event_key(static_cast<std::uint64_t>(id_) + 1, events_keyed_++);
  }

  /// Cost this node's metric most recently reported for one of its own
  /// outgoing links.
  [[nodiscard]] double reported_cost(net::LinkId out_link) const;

  /// Distance-vector mode accessors (RoutingAlgorithm::kDistanceVector).
  [[nodiscard]] double dv_distance(net::NodeId dst) const { return dv_dist_.at(dst); }
  [[nodiscard]] net::LinkId dv_next_hop(net::NodeId dst) const {
    return dv_next_.at(dst);
  }

  /// Marks a local outgoing link up/down. Down links advertise
  /// kDownLinkCost and stop transmitting; on up, the metric eases back in.
  void set_local_link_up(net::LinkId out_link, bool up);

  /// Administrative state of one local outgoing link.
  [[nodiscard]] bool link_up(net::LinkId out_link) const;

  /// Replaces one local out-link's metric, measurement and filter state
  /// after a mid-run line-type upgrade (Network::apply_upgrade). The new
  /// metric is pre-built by the caller so this allocates nothing inside the
  /// measurement window; if the link is up, the upgraded type's highest
  /// cost is flooded immediately (the section 5.4 restart rule — a changed
  /// line eases in exactly like a restarted one).
  void upgrade_local_link(net::LinkId out_link,
                          std::unique_ptr<metrics::LinkMetric> metric);

  /// Cost advertised for an unusable link: finite (so SPF stays total) but
  /// large enough that no path uses it unless the network is partitioned.
  static constexpr double kDownLinkCost = 1e7;

  /// Distance-vector "infinity": estimates at or above this are treated as
  /// unreachable.
  static constexpr double kUnreachable = 1e9;

 private:
  /// One waiting pooled packet: the queues move 16-byte records, never the
  /// Packet structs themselves.
  struct Queued {
    PacketHandle pkt = kInvalidPacketHandle;
    util::SimTime enqueued;
  };

  struct OutLink {
    net::LinkId id = net::kInvalidLink;
    RingQueue<Queued> data_q;
    RingQueue<Queued> update_q;
    bool busy = false;
    bool up = true;
    metrics::DelayMeasurement meas;
    std::unique_ptr<metrics::LinkMetric> metric;
    routing::SignificanceFilter filter;
    double reported = 0.0;
    /// Previous measurement period's candidate cost (reported or not) —
    /// the baseline the per-period movement invariant is checked against.
    double last_candidate = 0.0;

    OutLink(net::LinkId lid, metrics::DelayMeasurement m,
            std::unique_ptr<metrics::LinkMetric> met,
            routing::SignificanceFilter f, double initial)
        : id{lid}, meas{std::move(m)}, metric{std::move(met)},
          filter{std::move(f)}, reported{initial}, last_candidate{initial} {}
  };

  /// Schedules one of this node's own events, keyed by next_event_key().
  void schedule_in(util::SimTime delay, SimEvent ev);
  void forward(PacketHandle pkt);
  void enqueue(OutLink& out, PacketHandle pkt, bool priority);
  void drop_queued(OutLink& out);
  void maybe_start_tx(OutLink& out);
  void handle_update(PacketHandle pkt, net::LinkId via_link);
  void originate_update(std::span<const double> candidates);
  void flood_copies(UpdateHandle update, net::LinkId arrived_on);
  OutLink& out_for(net::LinkId link);

  // --- the 1969 distance-vector mode ---
  void dv_recompute();
  void dv_advertise();
  [[nodiscard]] double dv_link_metric(const OutLink& out) const;
  void handle_distance_vector(PacketHandle pkt, net::LinkId via_link);

  Network& net_;
  net::NodeId id_;
  routing::IncrementalSpf spf_;
  routing::FloodingState flood_state_;
  std::vector<OutLink> out_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_keyed_ = 0;  ///< next_event_key's per-node count
  long updates_originated_ = 0;
  /// Scratch for measurement_period's per-link candidate costs; persistent
  /// so closing a period allocates nothing at steady state.
  std::vector<double> candidate_scratch_;

  // Distance-vector state (used only under RoutingAlgorithm::kDistanceVector):
  // own estimates, chosen next hops, and each neighbor's last advertisement
  // (indexed like out_).
  std::vector<double> dv_dist_;
  std::vector<net::LinkId> dv_next_;
  std::vector<std::vector<double>> dv_neighbor_;

  // Multipath extension state: equal-cost next-hop sets, rebuilt lazily
  // after cost changes, plus a per-destination round-robin cursor.
  routing::MultipathSets mp_sets_;
  std::vector<std::uint32_t> mp_cursor_;
  bool mp_dirty_ = true;
};

}  // namespace arpanet::sim
