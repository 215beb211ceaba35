#include "src/sim/network.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/metrics/metric_factory.h"
#include "src/net/line_type.h"
#include "src/util/check.h"

namespace arpanet::sim {

thread_local Network::Tls Network::tls_;

Network::Network(const net::Topology& topo, NetworkConfig cfg)
    : topo_{&topo},
      cfg_{cfg},
      factory_{cfg.metric_factory
                   ? cfg.metric_factory
                   : std::make_shared<metrics::KindMetricFactory>(cfg.metric)},
      rng_{cfg.seed},
      sizer_{cfg.mean_packet_bits},
      min_hop_table_{routing::min_hop_lengths(topo)},
      merged_drops_{cfg.stats_bucket} {
  if (!topo.is_connected()) {
    throw std::invalid_argument("topology must be connected");
  }
  // Node tie keys use owners 1..n; the top owner value is the fault engine's.
  ARPA_CHECK(topo.node_count() < kFaultEventOwner)
      << "too many nodes for the event tie-key owner field";
  part_ = net::partition_topology(topo, cfg.shards, cfg.seed);
  const auto shard_count = static_cast<std::size_t>(part_.shards);
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, shard_count, cfg.stats_bucket));
  }
  if (shard_count > 1) {
    // Conservative lookahead: nothing sent across a shard boundary can
    // arrive sooner than the cheapest cut trunk's propagation delay, so
    // that delay is the sync window length.
    bool any_cut = false;
    util::SimTime min_prop = util::SimTime::zero();
    for (const net::Link& l : topo.links()) {
      if (part_.shard_of[l.from] == part_.shard_of[l.to]) continue;
      if (!any_cut || l.prop_delay < min_prop) min_prop = l.prop_delay;
      any_cut = true;
    }
    ARPA_CHECK(any_cut) << "multi-shard partition of a connected topology "
                           "must cut at least one trunk";
    ARPA_CHECK(min_prop > util::SimTime::zero())
        << "sharded run requires nonzero propagation delay on every "
           "cross-shard trunk (lookahead would be zero)";
    lookahead_ = min_prop;
  }
  std::size_t max_degree = 0;
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    max_degree = std::max(max_degree, topo.out_links(v).size());
  }
  // Queue-bound packet working set per shard: every owned output queue full
  // (enqueue drops beyond queue_capacity) plus a transmitting/propagating
  // packet per owned link, plus slack for flooded updates (not queue-capped,
  // but short-lived).
  std::vector<std::size_t> nodes_owned(shard_count, 0);
  std::vector<std::size_t> links_owned(shard_count, 0);
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    ++nodes_owned[part_.shard_of[v]];
    links_owned[part_.shard_of[v]] += topo.out_links(v).size();
  }
  for (auto& sh : shards_) {
    sh->updates.set_report_capacity(max_degree);
    sh->pool.reserve(
        links_owned[sh->index] *
            (static_cast<std::size_t>(cfg.queue_capacity) + 2) +
        nodes_owned[sh->index] * 8);
  }
  // Every PSN starts from the same cost map (each link at its metric's
  // initial cost), so the initial trees are consistent network-wide.
  routing::LinkCosts initial(topo.link_count());
  for (const net::Link& l : topo.links()) {
    initial[l.id] = factory_->create(l, cfg.line_params)->initial_cost();
  }
  // Movement-limit checks need HN-SPF semantics; absolute bounds come from
  // whatever range the factory promises (custom factories included).
  const auto* kind_factory =
      dynamic_cast<const metrics::KindMetricFactory*>(factory_.get());
  hnspf_invariants_ =
      kind_factory && kind_factory->kind() == metrics::MetricKind::kHnSpf;
  link_bounds_.reserve(topo.link_count());
  for (const net::Link& l : topo.links()) {
    link_bounds_.push_back(factory_->bounds(l, cfg.line_params));
  }
  last_reported_cost_ = initial;
  effective_links_.assign(topo.links().begin(), topo.links().end());
  psns_.reserve(topo.node_count());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    psns_.push_back(std::make_unique<Psn>(*this, n, initial));
  }
  link_busy_.reserve(topo.link_count());
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    link_busy_.emplace_back(cfg.stats_bucket);
  }
  cost_traces_.resize(topo.link_count());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    // Each PSN's startup timers must land in the queue of the shard that
    // will execute them.
    const ShardScope scope{*this, shard_of_node(n)};
    psns_[n]->start();
  }
}

Network::~Network() = default;

void Network::add_traffic(const traffic::TrafficMatrix& matrix) {
  if (matrix.nodes() != topo_->node_count()) {
    throw std::invalid_argument("traffic matrix size != node count");
  }
  ARPA_CHECK(sources_.empty()) << "add_traffic may be called at most once";
  std::vector<double> weights;
  for (net::NodeId s = 0; s < matrix.nodes(); ++s) {
    std::vector<net::NodeId> dests;
    weights.clear();
    double row_bps = 0.0;
    for (net::NodeId d = 0; d < matrix.nodes(); ++d) {
      const double bps = matrix.at(s, d);
      if (bps <= 0.0) continue;
      dests.push_back(d);
      weights.push_back(bps);
      row_bps += bps;
    }
    if (dests.empty()) continue;
    sources_.push_back(Source{
        s, traffic::PoissonProcess{row_bps / cfg_.mean_packet_bits},
        traffic::AliasTable{weights}, std::move(dests), rng_.split(s)});
    // Source ticks belong to the source node's shard.
    const ShardScope scope{*this, shard_of_node(s)};
    schedule_tick(static_cast<std::uint32_t>(sources_.size() - 1));
  }
}

void Network::schedule_tick(std::uint32_t source_index) {
  Source& src = sources_[source_index];
  current_shard().sim.schedule_in(src.process.next_gap(src.rng),
                                  SimEvent::source_tick(*this, source_index),
                                  psns_[src.node]->next_event_key());
}

void Network::handle_event(SimEvent& ev) {
  switch (ev.kind()) {
    case SimEvent::Kind::kSourceTick: {
      if (!traffic_enabled_) break;  // stop_traffic(): let the queues drain
      Source& s = sources_[ev.index()];
      const net::NodeId dst = s.dests[s.pick.sample(s.rng)];
      psns_[s.node]->originate_data(dst, sizer_.sample(s.rng));
      schedule_tick(ev.index());
      break;
    }
    case SimEvent::Kind::kPropagationArrival:
      psns_[topo_->link(ev.link()).to]->receive(ev.packet(), ev.link());
      break;
    case SimEvent::Kind::kTransmitComplete:
      psns_[ev.index()]->on_transmit_complete(ev.link(), ev.t1(), ev.t2(),
                                              ev.flag(), ev.packet());
      break;
    case SimEvent::Kind::kMeasurementPeriod:
      psns_[ev.index()]->measurement_period();
      break;
    case SimEvent::Kind::kDvTick:
      psns_[ev.index()]->dv_tick();
      break;
    case SimEvent::Kind::kFaultAction:
      apply_fault(current_shard(), ev.index());
      break;
    default:
      ARPA_CHECK(false) << "network dispatched unknown event kind "
                        << static_cast<int>(ev.kind());
  }
}

void Network::run_for(util::SimTime duration) { run_until(now() + duration); }

void Network::run_until(util::SimTime end) {
  if (shards_.size() == 1) {
    shards_.front()->sim.run_until(end);
    return;
  }
  ARPA_CHECK(tracer_ == nullptr && trace_sink_ == nullptr && !delivery_hook_)
      << "packet tracing, trace sinks and delivery hooks require shards == 1";
  std::barrier sync{static_cast<std::ptrdiff_t>(shards_.size())};
  std::vector<std::thread> workers;
  workers.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    workers.emplace_back(
        [this, end, &sync](Shard& sh) { run_window_loop(sh, end, sync); },
        std::ref(*shards_[i]));
  }
  run_window_loop(*shards_.front(), end, sync);
  for (std::thread& t : workers) t.join();
}

void Network::run_window_loop(Shard& sh, util::SimTime end,
                              std::barrier<>& sync) {
  const ShardScope scope{*this, sh};
  // Every shard's clock follows the same trajectory (min(now + lookahead,
  // end) from a common start), so all workers execute the same number of
  // iterations and the barrier phases stay aligned.
  while (sh.sim.now() < end) {
    sync.arrive_and_wait();  // all outboxes from the previous window final
    drain_mailboxes(sh);
    sync.arrive_and_wait();  // all inboxes drained; outboxes reusable
    sh.sim.run_until(std::min(sh.sim.now() + lookahead_, end));
  }
  // Final drain: messages sent during the last window arrive at or after
  // `end`; deposit them into the destination queues now so in-flight
  // accounting (updates_in_flight) never hides work inside a mailbox and a
  // later run_until resumes exactly where a single-shard run would.
  sync.arrive_and_wait();
  drain_mailboxes(sh);
}

void Network::drain_mailboxes(Shard& sh) {
  for (const auto& src : shards_) {
    std::vector<MailMsg>& box = src->outbox[sh.index];
    for (MailMsg& m : box) {
      const PacketHandle h = sh.pool.acquire(std::move(m.pkt));
      if (m.has_update) {
        const UpdateHandle uh = sh.updates.acquire();
        routing::RoutingUpdate& u = sh.updates.at(uh);
        u.origin = m.update.origin;
        u.seq = m.update.seq;
        u.reports.assign(m.update.reports.begin(), m.update.reports.end());
        sh.pool.at(h).update = uh;
      }
      sh.sim.schedule_at(util::SimTime::from_us(m.arrival_us),
                         SimEvent::propagation_arrival(*this, m.link, h),
                         m.key);
    }
    box.clear();
  }
}

void Network::reset_stats() {
  window_start_ = shards_.front()->sim.now();
  for (auto& sh : shards_) {
    sh->stats = NetworkStats{};
    sh->stability = StabilityStats{};
    sh->last_fault_at = window_start_;
    sh->last_route_change_at = window_start_;
  }
}

void Network::reserve_stats_until(util::SimTime end) {
  for (stats::TimeSeries& series : link_busy_) series.reserve_until(end);
  for (auto& sh : shards_) sh->drops.reserve_until(end);
}

void Network::on_delivered(const Packet& pkt) {
  Shard& sh = current_shard();
  ++sh.stats.packets_delivered;
  sh.stats.bits_delivered += pkt.bits;
  sh.stats.one_way_delay_ms.add((sh.sim.now() - pkt.created).ms());
  sh.stats.delay_histogram_ms.add((sh.sim.now() - pkt.created).ms());
  sh.stats.path_hops.add(pkt.hops);
  sh.stats.min_hops.add(min_hop_table_[pkt.src][pkt.dst]);
  if (delivery_hook_) delivery_hook_(pkt);
}

void Network::on_queue_drop(const Packet& pkt) {
  (void)pkt;
  Shard& sh = current_shard();
  ++sh.stats.packets_dropped_queue;
  ++sh.counters.packets_dropped;
  sh.drops.add(sh.sim.now(), 1.0);
}

void Network::on_unreachable_drop(const Packet& pkt) {
  (void)pkt;
  Shard& sh = current_shard();
  ++sh.stats.packets_dropped_unreachable;
  ++sh.counters.packets_dropped;
}

void Network::on_loop_drop(const Packet& pkt) {
  (void)pkt;
  Shard& sh = current_shard();
  ++sh.stats.packets_dropped_loop;
  ++sh.counters.packets_dropped;
  sh.drops.add(sh.sim.now(), 1.0);
}

void Network::on_transmission(net::LinkId link, util::SimTime busy) {
  link_busy_[link].add(now(), static_cast<double>(busy.us()));
}

void Network::on_cost_reported(net::LinkId link, double cost) {
  if (cfg_.check_invariants && cost != Psn::kDownLinkCost) {
    ARPA_CHECK(std::isfinite(cost) && cost > 0.0)
        << "link " << link << " reported non-positive cost " << cost;
    if (link_bounds_[link]) {
      analysis::check_cost_in_bounds(analysis::Cost{cost},
                                     analysis::Cost{link_bounds_[link]->min_cost},
                                     analysis::Cost{link_bounds_[link]->max_cost});
    }
    // Movement limiting is enforced per measurement period (the granularity
    // the paper states it at) in on_period_measured, not report-to-report.
  }
  last_reported_cost_[link] = cost;
  if (cfg_.track_reported_costs) {
    cost_traces_[link].emplace_back(now(), cost);
  }
  if (trace_sink_) trace_sink_->on_cost_reported(link, now(), cost);
}

void Network::on_period_measured(net::LinkId link, analysis::Cost previous,
                                 analysis::Cost candidate,
                                 analysis::Utilization busy_fraction) {
  Shard& sh = current_shard();
  if (cfg_.check_invariants) {
    analysis::check_utilization_in_range(busy_fraction);
    if (hnspf_invariants_ && previous.value() != Psn::kDownLinkCost &&
        candidate.value() != Psn::kDownLinkCost) {
      const net::Link& l = effective_links_[link];
      // The exact section 4.3 bound: consecutive periods' costs differ by at
      // most the movement limit, with no threshold slack — HN-SPF limits the
      // candidate against the previous period's value whether or not either
      // was significant enough to flood.
      analysis::check_movement_limited(previous, candidate,
                                       cfg_.line_params.for_type(l.type),
                                       /*extra_slack=*/0.0);
      ++sh.counters.invariant_period_checks;
    }
  }
  if (previous.value() != Psn::kDownLinkCost &&
      candidate.value() != Psn::kDownLinkCost) {
    const double movement = std::abs(candidate.value() - previous.value());
    if (movement > sh.stability.max_movement) {
      sh.stability.max_movement = movement;
    }
    const core::LineTypeParams& params =
        cfg_.line_params.for_type(effective_links_[link].type);
    if (movement > analysis::kCostSlack &&
        busy_fraction.value() <= params.flat_threshold) {
      ++sh.stability.flat_oscillations;
    }
  }
  if (trace_sink_) {
    trace_sink_->on_utilization(link, now(), busy_fraction.value());
  }
}

void Network::deliver_to_peer(net::LinkId link, PacketHandle pkt) {
  Shard& sh = current_shard();
  const net::Link& l = topo_->link(link);
  Shard& dst = shard_of_node(l.to);
  // The sender keys the arrival, so it sorts the same whichever shard's
  // queue it lands in.
  const std::uint64_t key = psns_[l.from]->next_event_key();
  if (&dst == &sh) {
    sh.sim.schedule_in(effective_links_[link].prop_delay,
                       SimEvent::propagation_arrival(*this, link, pkt), key);
    return;
  }
  // Cross-shard hop: copy the packet (and any pooled update payload) out of
  // this shard's slabs into the destination's mailbox. The receiver copies
  // it into its own slabs at the next window boundary — the two shards
  // never share a pool slot.
  Packet& p = sh.pool.at(pkt);
  MailMsg msg;
  msg.arrival_us = (sh.sim.now() + effective_links_[link].prop_delay).us();
  msg.key = key;
  msg.link = link;
  if (p.update != kInvalidUpdateHandle) {
    msg.has_update = true;
    msg.update = sh.updates.at(p.update);
  }
  msg.pkt = p;
  msg.pkt.update = kInvalidUpdateHandle;
  sh.outbox[dst.index].push_back(std::move(msg));
  sh.pool.release(pkt);  // drops this shard's update reference too
}

double Network::link_utilization(net::LinkId id, std::size_t bucket) const {
  const double busy_us = link_busy_.at(id).bucket(bucket);
  return busy_us / static_cast<double>(cfg_.stats_bucket.us());
}

void Network::set_trunk_up(net::LinkId link, bool up) {
  const net::Link& l = topo_->link(link);
  psns_[l.from]->set_local_link_up(l.id, up);
  psns_[l.to]->set_local_link_up(l.reverse, up);
}

routing::PathTrace Network::current_route(net::NodeId src,
                                          net::NodeId dst) const {
  routing::PathTrace trace;
  std::vector<bool> visited(topo_->node_count(), false);
  net::NodeId at = src;
  while (at != dst) {
    if (visited[at]) {
      trace.looped = true;
      return trace;
    }
    visited[at] = true;
    const net::LinkId next = psns_[at]->tree().first_hop[dst];
    if (next == net::kInvalidLink) return trace;
    trace.links.push_back(next);
    at = topo_->link(next).to;
  }
  trace.reached = true;
  return trace;
}

void Network::set_node_up(net::NodeId node, bool up) {
  for (const net::LinkId lid : topo_->out_links(node)) {
    set_trunk_up(lid, up);
  }
}

bool Network::link_admin_up(net::LinkId link) const {
  const net::Link& l = topo_->link(link);
  return psns_[l.from]->link_up(l.id);
}

void Network::install_faults(const FaultPlan& plan, util::SimTime horizon) {
  ARPA_CHECK(fault_actions_.empty())
      << "install_faults may be called at most once per network";
  fault_actions_ = plan.compile(*topo_, horizon);
  // Expand each action into per-shard op lists: a trunk's two simplex
  // halves apply on (possibly) two shards, each in its own kFaultAction
  // event. The shard owning the action's nominal target is primary and
  // alone counts the action in its stability stats.
  struct PendingOp {
    std::uint32_t shard;
    ShardFaultOp op;
  };
  std::vector<PendingOp> ops;
  for (std::uint32_t i = 0; i < fault_actions_.size(); ++i) {
    const FaultAction& a = fault_actions_[i];
    ops.clear();
    std::uint32_t primary = 0;
    const auto add_trunk = [&](net::LinkId link, bool up) {
      const net::Link& l = topo_->link(link);
      ops.push_back({part_.shard_of[l.from],
                     {ShardFaultOp::Kind::kSetLink, up, l.from, l.id, 0}});
      ops.push_back({part_.shard_of[l.to],
                     {ShardFaultOp::Kind::kSetLink, up, l.to, l.reverse, 0}});
    };
    switch (a.op) {
      case FaultAction::Op::kLinkDown:
      case FaultAction::Op::kLinkUp: {
        const bool up = a.op == FaultAction::Op::kLinkUp;
        primary = part_.shard_of[topo_->link(a.link).from];
        add_trunk(a.link, up);
        break;
      }
      case FaultAction::Op::kNodeDown:
      case FaultAction::Op::kNodeUp: {
        const bool up = a.op == FaultAction::Op::kNodeUp;
        primary = part_.shard_of[a.node];
        for (const net::LinkId lid : topo_->out_links(a.node)) {
          add_trunk(lid, up);
        }
        break;
      }
      case FaultAction::Op::kUpgrade: {
        PreparedUpgrade up;
        up.action_index = i;
        up.fwd = effective_links_[a.link];
        up.fwd.type = a.new_type;
        up.fwd.rate = net::info(a.new_type).rate;
        up.rev = effective_links_[up.fwd.reverse];
        up.rev.type = a.new_type;
        up.rev.rate = up.fwd.rate;
        up.fwd_metric = factory_->create(up.fwd, cfg_.line_params);
        up.rev_metric = factory_->create(up.rev, cfg_.line_params);
        up.fwd_bounds = factory_->bounds(up.fwd, cfg_.line_params);
        up.rev_bounds = factory_->bounds(up.rev, cfg_.line_params);
        const auto prepared =
            static_cast<std::uint32_t>(prepared_upgrades_.size());
        primary = part_.shard_of[up.fwd.from];
        ops.push_back({part_.shard_of[up.fwd.from],
                       {ShardFaultOp::Kind::kUpgradeFwd, false, up.fwd.from,
                        up.fwd.id, prepared}});
        ops.push_back({part_.shard_of[up.rev.from],
                       {ShardFaultOp::Kind::kUpgradeRev, false, up.rev.from,
                        up.rev.id, prepared}});
        prepared_upgrades_.push_back(std::move(up));
        break;
      }
    }
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      Shard& sh = *shards_[k];
      const auto begin = static_cast<std::uint32_t>(sh.fault_ops.size());
      for (const PendingOp& po : ops) {
        if (po.shard == k) sh.fault_ops.push_back(po.op);
      }
      const auto end = static_cast<std::uint32_t>(sh.fault_ops.size());
      if (end == begin) continue;
      sh.fault_actions.push_back({i, k == primary, begin, end});
      // Keyed by the plan's action index: every shard applying a slice of
      // action i orders it identically against simultaneous node events.
      sh.sim.schedule_at(
          a.at,
          SimEvent::fault_action(
              *this, static_cast<std::uint32_t>(sh.fault_actions.size() - 1)),
          event_key(kFaultEventOwner, i));
    }
  }
  // One AppliedUpgrade record per upgrade half a shard owns (bounded by its
  // op count); sized here so the mid-window push_back never allocates.
  for (auto& sh : shards_) {
    sh->upgrades_applied.reserve(sh->fault_ops.size());
  }
}

void Network::apply_fault(Shard& sh, std::uint32_t shard_action_index) {
  const ShardFaultAction& act = sh.fault_actions[shard_action_index];
  for (std::uint32_t i = act.begin; i < act.end; ++i) {
    const ShardFaultOp& op = sh.fault_ops[i];
    switch (op.kind) {
      case ShardFaultOp::Kind::kSetLink:
        psns_[op.node]->set_local_link_up(op.link, op.up);
        break;
      case ShardFaultOp::Kind::kUpgradeFwd:
      case ShardFaultOp::Kind::kUpgradeRev:
        apply_upgrade_half(sh, op);
        break;
    }
  }
  if (act.primary) {
    ++sh.stability.faults_applied;
    sh.last_fault_at = sh.sim.now();
  }
}

void Network::apply_upgrade_half(Shard& sh, const ShardFaultOp& op) {
  PreparedUpgrade& up = prepared_upgrades_[op.prepared];
  const bool fwd = op.kind == ShardFaultOp::Kind::kUpgradeFwd;
  const net::Link& rec = fwd ? up.fwd : up.rev;
  effective_links_[rec.id] = rec;
  link_bounds_[rec.id] = fwd ? up.fwd_bounds : up.rev_bounds;
  psns_[rec.from]->upgrade_local_link(
      rec.id, std::move(fwd ? up.fwd_metric : up.rev_metric));
  sh.upgrades_applied.push_back({rec.id, sh.sim.now(), rec.type});
}

StabilityStats Network::stability() const {
  StabilityStats s;
  util::SimTime last_fault = util::SimTime::zero();
  util::SimTime last_change = util::SimTime::zero();
  for (const auto& sh : shards_) {
    s.route_changes += sh->stability.route_changes;
    s.flat_oscillations += sh->stability.flat_oscillations;
    s.max_movement = std::max(s.max_movement, sh->stability.max_movement);
    s.faults_applied += sh->stability.faults_applied;
    last_fault = std::max(last_fault, sh->last_fault_at);
    last_change = std::max(last_change, sh->last_route_change_at);
  }
  if (s.faults_applied > 0 && last_change >= last_fault) {
    s.reconverge_sec = (last_change - last_fault).sec();
  }
  return s;
}

const NetworkStats& Network::stats() const {
  if (shards_.size() == 1) return shards_.front()->stats;
  merged_stats_ = NetworkStats{};
  for (const auto& sh : shards_) merged_stats_.merge(sh->stats);
  return merged_stats_;
}

const stats::TimeSeries& Network::drop_series() const {
  if (shards_.size() == 1) return shards_.front()->drops;
  merged_drops_ = stats::TimeSeries{cfg_.stats_bucket};
  for (const auto& sh : shards_) merged_drops_.merge(sh->drops);
  return merged_drops_;
}

std::span<const AppliedUpgrade> Network::upgrades_applied() const {
  if (shards_.size() == 1) return shards_.front()->upgrades_applied;
  merged_upgrades_.clear();
  for (const auto& sh : shards_) {
    merged_upgrades_.insert(merged_upgrades_.end(),
                            sh->upgrades_applied.begin(),
                            sh->upgrades_applied.end());
  }
  std::stable_sort(merged_upgrades_.begin(), merged_upgrades_.end(),
                   [](const AppliedUpgrade& a, const AppliedUpgrade& b) {
                     return a.at < b.at;
                   });
  return merged_upgrades_;
}

std::size_t Network::updates_in_flight() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->updates.in_use();
  return total;
}

std::uint64_t Network::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->sim.events_processed();
  return total;
}

void Network::reserve_window_headroom() {
  for (auto& sh : shards_) {
    sh->sim.reserve_events(4 * sh->sim.queue_peak_depth());
    sh->updates.reserve(2 * sh->updates.slots());
  }
}

obs::Counters Network::counters() const {
  obs::Counters c;
  for (const auto& psn : psns_) {
    const routing::IncrementalSpf& spf = psn->spf();
    c.spf_full += static_cast<std::uint64_t>(spf.full_recomputes());
    c.spf_incremental += static_cast<std::uint64_t>(spf.incremental_updates());
    c.spf_skipped += static_cast<std::uint64_t>(spf.skipped_updates());
    c.spf_nodes_touched += static_cast<std::uint64_t>(spf.nodes_touched());
  }
  for (const auto& sh : shards_) {
    obs::Counters s = sh->counters;
    s.events_processed = sh->sim.events_processed();
    s.event_queue_peak_depth = sh->sim.queue_peak_depth();
    s.event_queue_slab_slots = sh->sim.queue_slab_slots();
    s.event_queue_resizes = sh->sim.queue_resizes();
    s.event_queue_overflow_scheduled = sh->sim.queue_overflow_scheduled();
    s.packet_pool_slots = sh->pool.slots();
    s.packet_pool_acquired = sh->pool.acquired();
    s.packet_pool_recycled = sh->pool.recycled();
    c += s;
  }
  return c;
}

stats::NetworkIndicators Network::indicators(std::string label) const {
  const NetworkStats& st = stats();
  const double window_sec = window_length().sec();
  stats::NetworkIndicators ind;
  ind.label = std::move(label);
  if (window_sec <= 0.0) return ind;
  ind.internode_traffic_kbps = st.bits_delivered / window_sec / 1e3;
  ind.round_trip_delay_ms = 2.0 * st.one_way_delay_ms.mean();
  ind.updates_per_trunk_sec =
      static_cast<double>(st.update_packets_sent) /
      static_cast<double>(topo_->trunk_count()) / window_sec;
  ind.update_period_per_node_sec =
      st.updates_originated > 0
          ? window_sec * static_cast<double>(topo_->node_count()) /
                static_cast<double>(st.updates_originated)
          : 0.0;
  ind.actual_path_hops = st.path_hops.mean();
  ind.minimum_path_hops = st.min_hops.mean();
  ind.packets_dropped_per_sec =
      static_cast<double>(st.packets_dropped_queue) / window_sec;
  ind.delivered_packets_per_sec =
      static_cast<double>(st.packets_delivered) / window_sec;
  ind.delay_p50_ms = st.delay_histogram_ms.quantile(0.50);
  ind.delay_p95_ms = st.delay_histogram_ms.quantile(0.95);
  ind.delay_p99_ms = st.delay_histogram_ms.quantile(0.99);
  return ind;
}

}  // namespace arpanet::sim
