// Network: the assembled simulation — topology, PSNs, traffic, statistics.
//
// This is the library's main entry point for whole-network experiments:
//
//   net::Topology topo = net::builders::arpanet87();
//   sim::NetworkConfig cfg;
//   cfg.metric = metrics::MetricKind::kHnSpf;
//   sim::Network net{topo, cfg};
//   net.add_traffic(traffic::TrafficMatrix::peak_hour(topo.node_count(),
//                                                     400e3, rng));
//   net.run_for(util::SimTime::from_sec(300));   // warm-up
//   net.reset_stats();
//   net.run_for(util::SimTime::from_sec(600));   // measurement window
//   auto table1 = net.indicators("HN-SPF");
//
// Engine structure: the PSNs are partitioned into cfg.shards shards
// (src/net/partition.h), each owning its own Simulator/EventQueue, packet
// and update slabs, and statistics (src/sim/shard.h). run_until executes
// shards in barrier-synchronized windows of length equal to the minimum
// propagation delay of any cut trunk (the conservative lookahead): a packet
// sent across a shard boundary inside one window cannot arrive before the
// next, so each shard runs a window without ever looking at another
// shard's queue. Cross-shard arrivals travel through per-shard-pair
// mailboxes drained at window boundaries. Every event carries a tie key
// naming the node that scheduled it and that node's schedule count
// (sim/event_queue.h), so simultaneous events pop in the same order at any
// shard count: a sharded run is the single-shard run, bit for bit. With
// the default shards=1 the same code runs the caller's thread straight
// through — no second engine, no divergence.
//
// Offered traffic is one aggregate Poisson source per PSN with a nonzero
// matrix row (add_traffic), not one per (source, destination) pair: the
// same traffic in distribution, with O(n) sources and pending ticks
// instead of O(n²).

#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"
#include "src/metrics/metric_factory.h"
#include "src/net/partition.h"
#include "src/net/topology.h"
#include "src/obs/counters.h"
#include "src/obs/trace_sink.h"
#include "src/routing/routing_table.h"
#include "src/sim/event.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network_stats.h"
#include "src/sim/packet_pool.h"
#include "src/sim/packet_trace.h"
#include "src/sim/shard.h"
#include "src/sim/update_pool.h"
#include "src/sim/psn.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/indicators.h"
#include "src/stats/summary.h"
#include "src/stats/time_series.h"
#include "src/traffic/alias_table.h"
#include "src/traffic/poisson_source.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/rng.h"

namespace arpanet::sim {

struct NetworkConfig {
  /// Route computation generation; kSpf is the 1979+ scheme the paper
  /// modifies, kDistanceVector the 1969 original kept as a baseline.
  routing::RoutingAlgorithm algorithm = routing::RoutingAlgorithm::kSpf;
  metrics::MetricKind metric = metrics::MetricKind::kHnSpf;
  /// Open injection point for custom link metrics. When set it overrides
  /// `metric`; when null the network builds a KindMetricFactory from
  /// `metric`. Shared (not owned) so sweep cells can reuse one factory.
  std::shared_ptr<const metrics::MetricFactory> metric_factory;
  core::LineParamsTable line_params = core::LineParamsTable::arpanet_defaults();
  /// The ARPANET's ten-second measurement interval.
  util::SimTime measurement_period = util::SimTime::from_sec(10);
  /// Output data-queue capacity, packets; routing updates bypass it.
  int queue_capacity = 40;
  double mean_packet_bits = util::kAveragePacketBits;
  std::uint64_t seed = 0x19870726ULL;
  /// Bucket width for drop/utilization time series.
  util::SimTime stats_bucket = util::SimTime::from_sec(10);
  /// Record per-link reported-cost traces (fig. 1 style plots).
  bool track_reported_costs = false;
  /// Data packets exceeding this many hops are counted as loop drops
  /// (only the 1969 algorithm ever reaches it).
  int hop_limit = 128;
  /// Distance-vector mode: table exchange interval ("every 2/3 seconds").
  util::SimTime dv_exchange_period = util::SimTime::from_us(666'667);
  /// Distance-vector mode: the fixed constant added to the instantaneous
  /// queue length.
  double dv_bias = 1.0;
  /// Extension (paper section 4.5): spread each destination's packets
  /// round-robin over all equal-cost shortest-path next hops instead of the
  /// single canonical first hop. SPF mode only.
  bool multipath = false;
  /// Costs within this many routing units count as "equal" for multipath —
  /// measured metrics never produce exact ties (HN-SPF reporting
  /// granularity is about a half-hop, 15 units on a 56 kb/s line). The PSN
  /// additionally caps it below the cheapest current link cost so multipath
  /// forwarding stays loop-free.
  double multipath_tolerance = 15.0;
  /// Ablation hook: overrides the metric's update-generation threshold
  /// (routing units) when >= 0. The shipped behaviour (-1) uses the
  /// metric's own value — "a little less than a half-hop" for HN-SPF, the
  /// decaying 64-unit scheme for D-SPF.
  double significance_threshold_override = -1.0;
  /// Validate paper invariants on every reported cost (absolute bounds and
  /// movement limits, src/analysis/invariants.h); a violation aborts via
  /// ARPA_CHECK. A few comparisons per update origination — leave it on
  /// unless profiling says otherwise.
  bool check_invariants = true;
  /// Simulation shards (worker threads) for one network. 1 (the default)
  /// runs single-threaded on the caller's thread. K>1 partitions the PSNs
  /// into K BFS-grown regions and requires every cross-shard trunk to have
  /// nonzero propagation delay (the conservative lookahead). Tracing and
  /// delivery hooks require shards == 1.
  int shards = 1;
};

class Network : public EventSink {
 public:
  Network(const net::Topology& topo, NetworkConfig cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs one Poisson source per PSN whose matrix row is nonzero: it
  /// ticks at the row's total packet rate and draws each packet's
  /// destination from an alias table over the row's nonzero entries, so
  /// every (source, destination) pair is offered its own rate as an
  /// independent Poisson stream — the superposition, in one process. Each
  /// source's random stream is split from the seed by its node id. May be
  /// called once, before running.
  void add_traffic(const traffic::TrafficMatrix& matrix);

  /// Stops all sources: no packet is originated after this call. Running
  /// further drains the queues, after which conservation holds exactly
  /// (generated == delivered + dropped).
  void stop_traffic() { traffic_enabled_ = false; }

  /// Called (after statistics) for every delivered data packet. Used by
  /// host-level layers (sim/host_flow.h); one hook at a time. shards=1 only.
  void set_delivery_hook(std::function<void(const Packet&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Attaches a packet tracer (nullptr detaches). The tracer must outlive
  /// the run; recording costs one branch per event when detached.
  /// shards=1 only.
  void attach_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  /// Attaches a per-link observability sink receiving every reported cost
  /// and each link's per-period busy fraction (nullptr detaches). Same
  /// lifetime/cost contract as attach_tracer. shards=1 only.
  void attach_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  /// Psn-side tracing entry point.
  void trace(TraceEventKind kind, const Packet& pkt, net::NodeId node,
             net::LinkId link = net::kInvalidLink) {
    if (tracer_) tracer_->record(now(), kind, pkt.id, node, link);
  }

  void run_for(util::SimTime duration);
  void run_until(util::SimTime end);

  /// Zeroes counters and restarts the measurement window (call after
  /// warm-up).
  void reset_stats();

  /// Network-wide window statistics; with shards>1 this is a merge of the
  /// per-shard aggregates, rebuilt on each call (post-run reads only).
  [[nodiscard]] const NetworkStats& stats() const;
  [[nodiscard]] util::SimTime window_length() const {
    return shards_.front()->sim.now() - window_start_;
  }
  [[nodiscard]] stats::NetworkIndicators indicators(std::string label) const;

  /// Whole-run telemetry snapshot: live counters merged with per-PSN SPF
  /// work and every shard's event-engine totals. Unlike stats(), never
  /// reset by reset_stats() — values cover the network's lifetime including
  /// warm-up. Monotonic counts sum across shards; capacity/peak gauges take
  /// the per-shard maximum.
  [[nodiscard]] obs::Counters counters() const;

  [[nodiscard]] const net::Topology& topology() const { return *topo_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }
  /// The metric factory in effect (config's, or one built from its kind).
  [[nodiscard]] const metrics::MetricFactory& metric_factory() const {
    return *factory_;
  }
  /// The calling context's simulator: a shard worker gets its own shard's
  /// engine; outside a run this is shard 0 (with shards=1, the only one).
  [[nodiscard]] Simulator& simulator() { return current_shard().sim; }
  [[nodiscard]] util::SimTime now() const { return current_shard().sim.now(); }

  /// Events processed across all shards over the network's lifetime.
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Pre-sizes every shard's calendar queue to 4x its observed peak depth
  /// and its update pool to 2x its slot high-water mark, so a measurement
  /// window after warm-up schedules and floods into existing storage even
  /// when its bursts outgrow anything warm-up saw.
  void reserve_window_headroom();

  /// Number of simulation shards (== config().shards).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The node-to-shard assignment in effect.
  [[nodiscard]] const net::Partition& partition() const { return part_; }
  /// The conservative sync window: minimum propagation delay over trunks
  /// crossing a shard boundary. Zero when shards == 1 (never synced).
  [[nodiscard]] util::SimTime lookahead() const { return lookahead_; }

  [[nodiscard]] const Psn& psn(net::NodeId id) const { return *psns_.at(id); }
  [[nodiscard]] Psn& psn(net::NodeId id) { return *psns_.at(id); }

  /// Link utilization (busy fraction) per stats bucket.
  [[nodiscard]] const stats::TimeSeries& link_busy_series(net::LinkId id) const {
    return link_busy_.at(id);
  }
  [[nodiscard]] double link_utilization(net::LinkId id,
                                        std::size_t bucket) const;

  /// Reported-cost trace of a link (empty unless track_reported_costs).
  [[nodiscard]] const std::vector<std::pair<util::SimTime, double>>&
  reported_cost_trace(net::LinkId id) const {
    return cost_traces_.at(id);
  }

  /// Drops per stats bucket (fig. 13's quantity); merged across shards.
  [[nodiscard]] const stats::TimeSeries& drop_series() const;

  /// Takes a trunk (both simplex directions) down or up mid-run.
  void set_trunk_up(net::LinkId link, bool up);

  /// Compiles `plan` against the topology and schedules every resulting
  /// fault action as a kFaultAction event through the owning shard's
  /// calendar queue (an action touching links on two shards dispatches on
  /// both, each applying only its own half). `horizon` is the scenario end
  /// (warmup + window); the plan must not reach past it. Call once, before
  /// running: all scheduling (and all allocation — line-upgrade metrics are
  /// pre-built here) happens up front, so fault dispatch inside the
  /// measurement window stays on the warm slab.
  void install_faults(const FaultPlan& plan, util::SimTime horizon);

  /// Administrative state of one simplex link (its trunk's state: both
  /// directions always agree). Distinct from the advertised cost — a down
  /// link still carries Psn::kDownLinkCost in every map.
  [[nodiscard]] bool link_admin_up(net::LinkId link) const;

  /// The link record in effect right now: the topology's, unless a
  /// mid-run line-type upgrade replaced the type and rate (propagation
  /// delay never changes — trunk mileage is fixed, and the sharded
  /// engine's lookahead depends on it). All rate/params lookups on hot
  /// paths go through here.
  [[nodiscard]] const net::Link& effective_link(net::LinkId link) const {
    return effective_links_[link];
  }

  /// Routing updates currently in flight (origination slots plus flooded
  /// copies not yet consumed), summed across shards. Zero means every
  /// flooded report has been applied at every PSN — the quiescence gate for
  /// map-agreement checks. Mailboxes are always drained by the time
  /// run_until returns, so nothing hides between shards.
  [[nodiscard]] std::size_t updates_in_flight() const;

  /// Window stability telemetry; reconverge_sec is derived at call time
  /// from the latest fault/route-change timestamps across shards.
  [[nodiscard]] StabilityStats stability() const;

  using AppliedUpgrade = ::arpanet::sim::AppliedUpgrade;
  /// Applied line-type upgrades in time order (stable across equal times,
  /// forward half before reverse), merged across shards.
  [[nodiscard]] std::span<const AppliedUpgrade> upgrades_applied() const;

  /// Takes a whole PSN down or up: all its trunks at once (a node crash /
  /// restart). Down nodes still exist in every map; their links carry
  /// Psn::kDownLinkCost so traffic routes around them.
  void set_node_up(net::NodeId node, bool up);

  /// The route a data packet submitted right now at `src` would take,
  /// walking each PSN's *own* current tree hop by hop — so during update
  /// transients this can legitimately report a loop, exactly as a real
  /// packet could experience one.
  [[nodiscard]] routing::PathTrace current_route(net::NodeId src,
                                                 net::NodeId dst) const;

  /// Cost most recently passed to on_cost_reported for each link (the
  /// link's metric initial cost before any report). The invariant layer
  /// checks each new report's movement against this baseline.
  [[nodiscard]] double last_reported_cost(net::LinkId link) const {
    return last_reported_cost_.at(link);
  }

  // ---- callbacks from Psn (not for external use) ----
  void on_generated() { ++current_shard().stats.packets_generated; }
  void on_delivered(const Packet& pkt);
  void on_queue_drop(const Packet& pkt);
  void on_unreachable_drop(const Packet& pkt);
  void on_loop_drop(const Packet& pkt);
  void on_update_originated() {
    Shard& sh = current_shard();
    ++sh.stats.updates_originated;
    ++sh.counters.updates_originated;
  }
  void on_update_packet_sent() {
    Shard& sh = current_shard();
    ++sh.stats.update_packets_sent;
    ++sh.counters.update_packets_sent;
  }
  void on_data_packet_sent() { ++current_shard().counters.packets_forwarded; }
  void on_transmission(net::LinkId link, util::SimTime busy);
  void on_cost_reported(net::LinkId link, double cost);
  /// Typed-event dispatch (sim/event.h): source ticks, propagation
  /// arrivals, transmit completions and the per-node timers all route
  /// through here — one switch, no per-event allocation.
  void handle_event(SimEvent& ev) override;
  /// The calling shard's pooled packet slab; hot paths pass PacketHandle
  /// indices instead of moving Packet structs.
  [[nodiscard]] PacketPool& packet_pool() { return current_shard().pool; }
  /// The calling shard's refcounted routing-update slab.
  [[nodiscard]] UpdatePool& update_pool() { return current_shard().updates; }
  /// Pre-extends the bucketed statistics series (per-link utilization,
  /// drops) to cover sim time up to `end`, so recording during a
  /// measurement window that ends by then allocates nothing. Call before
  /// an AllocGuard-wrapped window.
  void reserve_stats_until(util::SimTime end);
  /// One measurement period closed on `link`: `previous` and `candidate`
  /// are the metric's consecutive per-period costs (kDownLinkCost while the
  /// link is down), `busy_fraction` the period's transmitter utilization.
  /// Enforces the exact section 4.3 movement bound between consecutive
  /// update periods (no significance-threshold widening — the metric
  /// limits every period's move, reported or not) and feeds the trace sink.
  /// The strong analysis types make the cost/cost/utilization argument row
  /// un-swappable at the call site.
  void on_period_measured(net::LinkId link, analysis::Cost previous,
                          analysis::Cost candidate,
                          analysis::Utilization busy_fraction);
  /// Hands a transmitted packet to the link's far end. Same-shard links
  /// schedule the arrival directly; cross-shard links copy the packet into
  /// the destination shard's mailbox, to be drained at the next window
  /// boundary (the conservative lookahead guarantees that boundary is at or
  /// before the arrival time).
  void deliver_to_peer(net::LinkId link, PacketHandle pkt);
  [[nodiscard]] std::uint64_t next_packet_id() {
    Shard& sh = current_shard();
    return (static_cast<std::uint64_t>(sh.index) << 48) | ++sh.packet_seq;
  }
  /// A batch of spf cost changes moved `delta` destinations' first hops at
  /// some PSN (stability telemetry; called by Psn after each batch).
  void on_route_change(long delta) {
    if (delta > 0) {
      Shard& sh = current_shard();
      sh.stability.route_changes += delta;
      sh.last_route_change_at = sh.sim.now();
    }
  }

 private:
  /// One PSN's offered traffic: its matrix row as one Poisson process.
  /// `rng` draws the gaps, destinations and packet sizes.
  struct Source {
    net::NodeId node;
    traffic::PoissonProcess process;
    traffic::AliasTable pick;        ///< index into dests, by rate
    std::vector<net::NodeId> dests;  ///< the row's nonzero destinations
    util::Rng rng;
  };
  /// Resources a line-type upgrade needs, built at install_faults time so
  /// applying the upgrade mid-window performs no allocation: the new link
  /// records, the freshly-constructed metrics (moved into the PSNs on
  /// apply) and the new cost bounds. The forward and reverse halves apply
  /// independently (possibly on different shards), each touching only
  /// state its own shard owns.
  struct PreparedUpgrade {
    std::uint32_t action_index = 0;
    net::Link fwd;
    net::Link rev;
    std::unique_ptr<metrics::LinkMetric> fwd_metric;
    std::unique_ptr<metrics::LinkMetric> rev_metric;
    std::optional<metrics::CostBounds> fwd_bounds;
    std::optional<metrics::CostBounds> rev_bounds;
  };

  /// Which shard the calling thread is executing for: inside a run each
  /// worker pins itself via ShardScope; any other context (setup, tests,
  /// post-run reads) resolves to shard 0, which with shards=1 is exactly
  /// the old single-engine behaviour.
  struct Tls {
    const Network* net = nullptr;
    Shard* shard = nullptr;
  };
  class ShardScope {
   public:
    ShardScope(const Network& net, Shard& shard) : prev_{tls_} {
      tls_ = Tls{&net, &shard};
    }
    ~ShardScope() { tls_ = prev_; }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    Tls prev_;
  };
  [[nodiscard]] Shard& current_shard() const {
    return tls_.net == this ? *tls_.shard : *shards_.front();
  }
  [[nodiscard]] Shard& shard_of_node(net::NodeId n) const {
    return *shards_[part_.shard_of[n]];
  }

  void schedule_tick(std::uint32_t source_index);
  void apply_fault(Shard& sh, std::uint32_t shard_action_index);
  void apply_upgrade_half(Shard& sh, const ShardFaultOp& op);
  /// Moves every message addressed to `sh` from the other shards' outboxes
  /// into sh's queue. Each carries the tie key its sender stamped, so the
  /// order they are scheduled in does not matter.
  void drain_mailboxes(Shard& sh);
  void run_window_loop(Shard& sh, util::SimTime end, std::barrier<>& sync);

  static thread_local Tls tls_;

  const net::Topology* topo_;
  NetworkConfig cfg_;
  std::shared_ptr<const metrics::MetricFactory> factory_;
  net::Partition part_;
  /// Per-shard engines; shards_[0] doubles as the external-context default.
  std::vector<std::unique_ptr<Shard>> shards_;
  util::SimTime lookahead_ = util::SimTime::zero();
  util::Rng rng_;
  traffic::PacketSizer sizer_;
  std::vector<std::unique_ptr<Psn>> psns_;
  std::vector<Source> sources_;
  std::vector<std::vector<int>> min_hop_table_;
  std::function<void(const Packet&)> delivery_hook_;
  PacketTracer* tracer_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
  /// Per-link cost bounds promised by the factory (nullopt = unbounded).
  /// Written only by the owning (from-node) shard, like every per-link
  /// record below.
  std::vector<std::optional<metrics::CostBounds>> link_bounds_;
  bool traffic_enabled_ = true;
  util::SimTime window_start_ = util::SimTime::zero();
  std::vector<stats::TimeSeries> link_busy_;
  std::vector<double> last_reported_cost_;
  bool hnspf_invariants_ = false;  ///< HN-SPF semantics known for all links
  std::vector<std::vector<std::pair<util::SimTime, double>>> cost_traces_;
  /// Mutable view of the topology's link records (line-type upgrades swap
  /// type and rate in place); indexed by LinkId like the topology's own.
  std::vector<net::Link> effective_links_;
  /// Compiled fault schedule (empty unless install_faults was called).
  std::vector<FaultAction> fault_actions_;
  std::vector<PreparedUpgrade> prepared_upgrades_;
  // Merge-on-demand caches for the cross-shard read accessors. Rebuilt on
  // every call when shards > 1; with one shard the accessors return the
  // shard's own aggregate and never touch these.
  mutable NetworkStats merged_stats_;
  mutable stats::TimeSeries merged_drops_;
  mutable std::vector<AppliedUpgrade> merged_upgrades_;
};

}  // namespace arpanet::sim
