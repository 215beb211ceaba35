#include "src/sim/psn.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/metrics/metric_factory.h"
#include "src/sim/network.h"
#include "src/util/check.h"

namespace arpanet::sim {

namespace {

routing::SignificanceFilter make_filter(const metrics::LinkMetric& metric,
                                        double threshold_override) {
  if (threshold_override >= 0.0) {
    return routing::SignificanceFilter{
        routing::SignificanceFilter::fixed_config(threshold_override)};
  }
  return routing::SignificanceFilter{
      metric.threshold_decays()
          ? routing::SignificanceFilter::dspf_config()
          : routing::SignificanceFilter::fixed_config(metric.change_threshold())};
}

}  // namespace

Psn::Psn(Network& net, net::NodeId id, routing::LinkCosts initial_costs)
    : net_{net},
      id_{id},
      spf_{net.topology(), id, std::move(initial_costs)},
      flood_state_{net.topology().node_count()} {
  const net::Topology& topo = net.topology();
  out_.reserve(topo.out_links(id).size());
  for (const net::LinkId lid : topo.out_links(id)) {
    const net::Link& link = topo.link(lid);
    auto metric = net.metric_factory().create(link, net.config().line_params);
    auto filter =
        make_filter(*metric, net.config().significance_threshold_override);
    const double initial = metric->initial_cost();
    filter.force_report(initial);
    out_.emplace_back(lid,
                      metrics::DelayMeasurement{link.rate, link.prop_delay},
                      std::move(metric), std::move(filter), initial);
    // data_q is hard-capped at queue_capacity by the drop check in
    // enqueue(), so it is sized to that bound now. update_q has no useful
    // hard bound (one update per origin would be n entries per link), and
    // its measured depth is a handful, so it starts at the ring's minimum
    // and Network::reserve_window_headroom doubles whatever warm-up grew
    // it to.
    OutLink& out = out_.back();
    out.data_q.reserve(static_cast<std::size_t>(net.config().queue_capacity));
    out.update_q.reserve(1);
  }
  // Sized up front so the first fault-driven origination (which can precede
  // the first measurement period) already finds warm storage.
  candidate_scratch_.reserve(out_.size());
}

void Psn::reserve_update_headroom() {
  for (OutLink& out : out_) out.update_q.reserve(2 * out.update_q.capacity());
}

void Psn::start() {
  if (net_.config().algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    const std::size_t n = net_.topology().node_count();
    dv_dist_.assign(n, kUnreachable);
    dv_dist_[id_] = 0.0;
    dv_next_.assign(n, net::kInvalidLink);
    dv_neighbor_.assign(out_.size(), std::vector<double>(n, kUnreachable));
    const util::SimTime period = net_.config().dv_exchange_period;
    const util::SimTime offset = util::SimTime::from_us(
        period.us() * (static_cast<std::int64_t>(id_) % 16) / 16);
    schedule_in(period + offset, SimEvent::dv_tick(net_, id_));
    return;
  }
  // Measurement periods are staggered across nodes (the real PSNs' clocks
  // were unsynchronized); the *response* to an update is still
  // near-simultaneous network-wide because flooding is fast.
  const util::SimTime period = net_.config().measurement_period;
  const auto nodes = static_cast<std::int64_t>(net_.topology().node_count());
  const util::SimTime offset = util::SimTime::from_us(
      period.us() * (static_cast<std::int64_t>(id_) % nodes) / std::max<std::int64_t>(nodes, 1));
  schedule_in(period + offset, SimEvent::measurement_period(net_, id_));
}

void Psn::schedule_in(util::SimTime delay, SimEvent ev) {
  net_.simulator().schedule_in(delay, ev, next_event_key());
}

Psn::OutLink& Psn::out_for(net::LinkId link) {
  // out_ was filled in out_links(id_) order, so the CSR slot of the link
  // within its from-node's span is also its index here.
  const net::Topology& topo = net_.topology();
  if (link >= topo.link_count() || topo.link(link).from != id_) {
    throw std::out_of_range("link is not an out-link of this PSN");
  }
  return out_[topo.out_pos(link)];
}

double Psn::reported_cost(net::LinkId out_link) const {
  const net::Topology& topo = net_.topology();
  if (out_link >= topo.link_count() || topo.link(out_link).from != id_) {
    throw std::out_of_range("link is not an out-link of this PSN");
  }
  return out_[topo.out_pos(out_link)].reported;
}

bool Psn::link_up(net::LinkId out_link) const {
  const net::Topology& topo = net_.topology();
  if (out_link >= topo.link_count() || topo.link(out_link).from != id_) {
    throw std::out_of_range("link is not an out-link of this PSN");
  }
  return out_[topo.out_pos(out_link)].up;
}

void Psn::originate_data(net::NodeId dst, double bits) {
  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.acquire();
  Packet& pkt = pool.at(h);
  pkt.id = net_.next_packet_id();
  pkt.kind = Packet::Kind::kData;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.bits = bits;
  pkt.created = net_.now();
  net_.on_generated();
  net_.trace(TraceEventKind::kOriginated, pkt, id_);
  forward(h);
}

void Psn::originate_packet(Packet pkt) {
  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.acquire(std::move(pkt));
  Packet& p = pool.at(h);
  p.id = net_.next_packet_id();
  p.src = id_;
  p.created = net_.now();
  net_.on_generated();
  net_.trace(TraceEventKind::kOriginated, p, id_);
  forward(h);
}

// ARPALINT-HOTPATH-BEGIN: the per-packet forwarding core — receive,
// route, enqueue, transmit completion — runs once per hop.
void Psn::receive(PacketHandle h, net::LinkId via_link) {
  PacketPool& pool = net_.packet_pool();
  Packet& pkt = pool.at(h);
  ++pkt.hops;
  if (pkt.kind == Packet::Kind::kRoutingUpdate) {
    handle_update(h, via_link);
    return;
  }
  if (pkt.kind == Packet::Kind::kDistanceVector) {
    handle_distance_vector(h, via_link);
    return;
  }
  if (pkt.dst == id_) {
    net_.trace(TraceEventKind::kDelivered, pkt, id_, via_link);
    net_.on_delivered(pkt);
    pool.release(h);
    return;
  }
  // A hop budget keeps packets finite under the 1969 algorithm's transient
  // loops (SPF forwarding never loops between consistent tables, so the
  // budget is inert there). Loop drops are an observable statistic.
  if (pkt.hops >= net_.config().hop_limit) {
    net_.trace(TraceEventKind::kDroppedLoop, pkt, id_, via_link);
    net_.on_loop_drop(pkt);
    pool.release(h);
    return;
  }
  forward(h);
}

void Psn::forward(PacketHandle h) {
  Packet& pkt = net_.packet_pool().at(h);
  net::LinkId next = net::kInvalidLink;
  if (net_.config().algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    next = dv_next_[pkt.dst];
  } else if (net_.config().multipath) {
    if (mp_dirty_) {
      // Cap the near-equality tolerance below the cheapest current cost so
      // every admitted next hop still strictly shortens the path.
      double min_cost = std::numeric_limits<double>::infinity();
      for (const double c : spf_.costs()) min_cost = std::min(min_cost, c);
      const double tolerance =
          std::min(net_.config().multipath_tolerance, 0.49 * min_cost);
      // ARPALINT-ALLOW(hot-path-alloc): the lazy multipath rebuild runs per
      // cost change, not per packet, and only when multipath is enabled.
      mp_sets_ = routing::MultipathSets::compute(net_.topology(), id_,
                                                 spf_.costs(), tolerance);
      // ARPALINT-ALLOW(hot-path-alloc): cursor vector retains capacity.
      mp_cursor_.assign(net_.topology().node_count(), 0);
      mp_dirty_ = false;
    }
    const std::span<const net::LinkId> hops = mp_sets_.next_hops(pkt.dst);
    if (!hops.empty()) {
      next = hops[mp_cursor_[pkt.dst]++ % hops.size()];
    }
  } else {
    next = spf_.tree().first_hop[pkt.dst];
  }
  if (next == net::kInvalidLink) {
    net_.trace(TraceEventKind::kDroppedUnreachable, pkt, id_);
    net_.on_unreachable_drop(pkt);
    net_.packet_pool().release(h);
    return;
  }
  enqueue(out_for(next), h, /*priority=*/false);
}

void Psn::enqueue(OutLink& out, PacketHandle h, bool priority) {
  const Packet& pkt = net_.packet_pool().at(h);
  if (!out.up) {
    // A dead line accepts nothing: whatever is routed or flooded onto it is
    // lost. Flooded updates are redundant by design and not a charged drop;
    // data packets count against the line's queue.
    if (!priority) {
      net_.trace(TraceEventKind::kDroppedQueue, pkt, id_, out.id);
      net_.on_queue_drop(pkt);
    }
    net_.packet_pool().release(h);
    return;
  }
  if (priority) {
    net_.trace(TraceEventKind::kEnqueued, pkt, id_, out.id);
    // ARPALINT-ALLOW(hot-path-alloc): RingQueue retains its power-of-two capacity
    out.update_q.push_back(Queued{h, net_.now()});
  } else {
    if (static_cast<int>(out.data_q.size()) >= net_.config().queue_capacity) {
      net_.trace(TraceEventKind::kDroppedQueue, pkt, id_, out.id);
      net_.on_queue_drop(pkt);
      net_.packet_pool().release(h);
      return;
    }
    net_.trace(TraceEventKind::kEnqueued, pkt, id_, out.id);
    // ARPALINT-ALLOW(hot-path-alloc): see above — capacity-retaining ring.
    out.data_q.push_back(Queued{h, net_.now()});
  }
  maybe_start_tx(out);
}

// Empties a dead line's queues: a trunk loses everything it was holding the
// moment it goes down. Pool releases recycle handles from the freelist, so
// this stays clean inside the zero-allocation measurement window.
void Psn::drop_queued(OutLink& out) {
  PacketPool& pool = net_.packet_pool();
  while (!out.update_q.empty()) {
    pool.release(out.update_q.front().pkt);
    out.update_q.pop_front();
  }
  while (!out.data_q.empty()) {
    const Queued item = out.data_q.front();
    out.data_q.pop_front();
    net_.trace(TraceEventKind::kDroppedQueue, pool.at(item.pkt), id_, out.id);
    net_.on_queue_drop(pool.at(item.pkt));
    pool.release(item.pkt);
  }
}

void Psn::maybe_start_tx(OutLink& out) {
  if (out.busy || !out.up) return;
  RingQueue<Queued>* q = nullptr;
  if (!out.update_q.empty()) {
    q = &out.update_q;
  } else if (!out.data_q.empty()) {
    q = &out.data_q;
  } else {
    return;
  }

  const Queued item = q->front();
  q->pop_front();
  out.busy = true;

  // The effective link record: a mid-run line-type upgrade changes the rate.
  const net::Link& link = net_.effective_link(out.id);
  const Packet& pkt = net_.packet_pool().at(item.pkt);
  const util::SimTime queue_delay = net_.now() - item.enqueued;
  const util::SimTime tx = link.rate.transmission_time(pkt.bits);
  // Both update kinds (flooded link costs, distance vectors) count as
  // routing overhead.
  const bool is_update = pkt.kind != Packet::Kind::kData;

  // The packet rides the typed completion event; no closure, no copy.
  schedule_in(tx, SimEvent::transmit_complete(net_, id_, out.id, item.pkt,
                                              queue_delay, tx, is_update));
}

void Psn::on_transmit_complete(net::LinkId link, util::SimTime queue_delay,
                               util::SimTime tx_time, bool is_update,
                               PacketHandle pkt) {
  OutLink& o = out_for(link);
  if (!o.up) {
    // The line died while the packet was serializing onto it: the packet is
    // lost, and the queues were already drained by set_local_link_up.
    if (!is_update) {
      net_.trace(TraceEventKind::kDroppedQueue, net_.packet_pool().at(pkt),
                 id_, link);
      net_.on_queue_drop(net_.packet_pool().at(pkt));
    }
    net_.packet_pool().release(pkt);
    o.busy = false;
    return;
  }
  o.meas.record_packet(queue_delay, tx_time);
  net_.on_transmission(link, tx_time);
  net_.trace(TraceEventKind::kTransmitted, net_.packet_pool().at(pkt), id_,
             link);
  if (is_update) {
    net_.on_update_packet_sent();
  } else {
    net_.on_data_packet_sent();
  }
  // Hand the packet to the propagation medium; it arrives at the neighbor
  // prop_delay later (Network routes it to the peer PSN).
  net_.deliver_to_peer(link, pkt);
  o.busy = false;
  maybe_start_tx(o);
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: update receipt + flooding, once per flooded copy.
void Psn::handle_update(PacketHandle h, net::LinkId via_link) {
  PacketPool& pool = net_.packet_pool();
  UpdatePool& updates = net_.update_pool();
  // Take over the packet's reference before the slot is reset, keeping the
  // pooled payload alive past the release.
  const UpdateHandle uh = pool.at(h).update;
  pool.at(h).update = kInvalidUpdateHandle;
  pool.release(h);
  if (uh == kInvalidUpdateHandle) {
    throw std::logic_error("update packet without payload");
  }
  const routing::RoutingUpdate& update = updates.at(uh);
  if (!flood_state_.accept(update)) {  // duplicate
    updates.release(uh);
    return;
  }
  const long hops_before = spf_.first_hop_changes();
  for (const routing::LinkCostReport& r : update.reports) {
    spf_.set_cost(r.link, r.cost);
  }
  net_.on_route_change(spf_.first_hop_changes() - hops_before);
  mp_dirty_ = true;
  flood_copies(uh, via_link);
  updates.release(uh);
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: the 10-second metric timer fires throughout the
// measurement window on every node.
void Psn::measurement_period() {
  // ARPALINT-ALLOW(hot-path-alloc): persistent scratch retains capacity
  candidate_scratch_.assign(out_.size(), 0.0);
  std::span<double> candidates{candidate_scratch_};
  bool significant = false;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    OutLink& o = out_[i];
    const metrics::PeriodMeasurement m =
        o.meas.end_period(net_.config().measurement_period);
    candidates[i] = o.up ? o.metric->on_period(m) : kDownLinkCost;
    net_.on_period_measured(o.id, analysis::Cost{o.last_candidate},
                            analysis::Cost{candidates[i]},
                            analysis::Utilization{m.busy_fraction});
    o.last_candidate = candidates[i];
    if (o.filter.should_report(candidates[i])) significant = true;
  }
  if (significant) originate_update(candidates);

  schedule_in(net_.config().measurement_period,
              SimEvent::measurement_period(net_, id_));
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: update origination runs inside the measurement
// window whenever a period's cost change is significant.
void Psn::originate_update(std::span<const double> candidates) {
  UpdatePool& updates = net_.update_pool();
  const UpdateHandle uh = updates.acquire();
  routing::RoutingUpdate& update = updates.at(uh);
  update.origin = id_;
  update.seq = ++seq_;
  const long hops_before = spf_.first_hop_changes();
  for (std::size_t i = 0; i < out_.size(); ++i) {
    OutLink& o = out_[i];
    // Every advertised cost must keep SPF well-defined (positive, finite);
    // the metric transforms guarantee it, the flooding layer relies on it.
    ARPA_DCHECK(candidates[i] > 0.0 && candidates[i] <= kDownLinkCost)
        << "link " << o.id << " produced unusable cost " << candidates[i];
    // The node reports all its links in one update; values that didn't
    // trip the filter themselves become the new baseline anyway.
    o.filter.force_report(candidates[i]);
    o.reported = candidates[i];
    // ARPALINT-ALLOW(hot-path-alloc): recycled slots keep their reports capacity
    update.reports.push_back({o.id, candidates[i]});
    net_.on_cost_reported(o.id, candidates[i]);
    // Apply locally at once: the PSN's own table always reflects its own
    // latest reports.
    spf_.set_cost(o.id, candidates[i]);
  }
  net_.on_route_change(spf_.first_hop_changes() - hops_before);
  mp_dirty_ = true;
  ++updates_originated_;
  net_.on_update_originated();
  // Record our own sequence number so flooded-back copies are rejected.
  flood_state_.accept(update);
  flood_copies(uh, net::kInvalidLink);
  updates.release(uh);
}

void Psn::flood_copies(UpdateHandle update, net::LinkId arrived_on) {
  const net::LinkId except =
      arrived_on == net::kInvalidLink
          ? net::kInvalidLink
          : net_.topology().link(arrived_on).reverse;
  UpdatePool& updates = net_.update_pool();
  for (OutLink& o : out_) {
    if (o.id == except) continue;
    PacketPool& pool = net_.packet_pool();
    const PacketHandle h = pool.acquire();
    Packet& pkt = pool.at(h);
    pkt.id = net_.next_packet_id();
    pkt.kind = Packet::Kind::kRoutingUpdate;
    pkt.src = updates.at(update).origin;
    pkt.bits = updates.at(update).wire_bits();
    pkt.created = net_.now();
    pkt.update = update;
    updates.add_ref(update);
    enqueue(o, h, /*priority=*/true);
  }
}
// ARPALINT-HOTPATH-END

// ---- the 1969 distance-vector mode ----

double Psn::dv_link_metric(const OutLink& out) const {
  // "The link metric was simply the instantaneous queue length at the moment
  // of updating plus a fixed constant" (section 2.1).
  if (!out.up) return kUnreachable;
  return static_cast<double>(out.data_q.size() + out.update_q.size()) +
         net_.config().dv_bias;
}

void Psn::dv_tick() {
  dv_recompute();
  dv_advertise();
  schedule_in(net_.config().dv_exchange_period, SimEvent::dv_tick(net_, id_));
}

void Psn::dv_recompute() {
  const std::size_t n = net_.topology().node_count();
  for (net::NodeId dst = 0; dst < n; ++dst) {
    if (dst == id_) continue;
    double best = kUnreachable;
    net::LinkId best_link = net::kInvalidLink;
    for (std::size_t i = 0; i < out_.size(); ++i) {
      const double neighbor_dist = dv_neighbor_[i][dst];
      if (neighbor_dist >= kUnreachable) continue;
      const double cand = dv_link_metric(out_[i]) + neighbor_dist;
      if (cand < best || (cand == best && out_[i].id < best_link)) {
        best = cand;
        best_link = out_[i].id;
      }
    }
    dv_dist_[dst] = best;
    dv_next_[dst] = best_link;
  }
}

void Psn::dv_advertise() {
  auto advert = std::make_shared<DistanceVector>();
  advert->origin = id_;
  advert->dist = dv_dist_;
  mp_dirty_ = true;
  ++updates_originated_;
  net_.on_update_originated();
  for (OutLink& o : out_) {
    PacketPool& pool = net_.packet_pool();
    const PacketHandle h = pool.acquire();
    Packet& pkt = pool.at(h);
    pkt.id = net_.next_packet_id();
    pkt.kind = Packet::Kind::kDistanceVector;
    pkt.src = id_;
    pkt.bits = advert->wire_bits();
    pkt.created = net_.now();
    pkt.dv = advert;
    enqueue(o, h, /*priority=*/true);
  }
}

void Psn::handle_distance_vector(PacketHandle h, net::LinkId via_link) {
  PacketPool& pool = net_.packet_pool();
  const std::shared_ptr<const DistanceVector> dv = std::move(pool.at(h).dv);
  pool.release(h);
  if (!dv) throw std::logic_error("distance-vector packet without payload");
  const net::Topology& topo = net_.topology();
  const net::LinkId out_link = topo.link(via_link).reverse;
  if (topo.link(out_link).from != id_) {
    throw std::logic_error("distance vector arrived over unknown link");
  }
  dv_neighbor_[topo.out_pos(out_link)] = dv->dist;
  // The original algorithm re-minimized on new information.
  dv_recompute();
}

// ARPALINT-HOTPATH-BEGIN: fault plans flap links inside the measurement
// window (flap storms run at 1 Hz); admin-state changes must stay on the
// warm slab like every other in-window path.
void Psn::set_local_link_up(net::LinkId out_link, bool up) {
  OutLink& o = out_for(out_link);
  if (o.up == up) return;
  o.up = up;
  if (!up) drop_queued(o);
  if (net_.config().algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    // No flooded updates in 1969 mode: the change shows up as an
    // unreachable metric in the next table exchanges.
    if (up) {
      o.metric->on_link_up();
      maybe_start_tx(o);
    }
    dv_recompute();
    return;
  }
  // Safe to share measurement_period's scratch: both run only as top-level
  // event handlers and originate_update does not re-enter either.
  // ARPALINT-ALLOW(hot-path-alloc): persistent scratch retains capacity
  candidate_scratch_.assign(out_.size(), 0.0);
  for (std::size_t i = 0; i < out_.size(); ++i) {
    candidate_scratch_[i] = out_[i].reported;
  }
  const auto idx = static_cast<std::size_t>(&o - out_.data());
  if (up) {
    o.metric->on_link_up();
    // "When a link comes up it starts with its highest cost" (section 5.4).
    candidate_scratch_[idx] = o.metric->initial_cost();
    // The next period's movement is limited against the restart cost, not
    // whatever the link reported before it went down.
    o.last_candidate = o.metric->initial_cost();
    maybe_start_tx(o);
  } else {
    candidate_scratch_[idx] = kDownLinkCost;
    o.last_candidate = kDownLinkCost;
  }
  originate_update(candidate_scratch_);
}

void Psn::upgrade_local_link(net::LinkId out_link,
                             std::unique_ptr<metrics::LinkMetric> metric) {
  OutLink& o = out_for(out_link);
  // Network::apply_upgrade already swapped the effective link record, so
  // the new rate and propagation delay are what the measurement sees.
  const net::Link& link = net_.effective_link(out_link);
  o.metric = std::move(metric);
  o.meas = metrics::DelayMeasurement{link.rate, link.prop_delay};
  o.filter = make_filter(*o.metric, net_.config().significance_threshold_override);
  if (!o.up) {
    // Upgraded while down: keep advertising kDownLinkCost; the new line
    // eases in when the trunk heals (set_local_link_up's restart path).
    o.filter.force_report(kDownLinkCost);
    return;
  }
  // A line-type change restarts the link's cost history: advertise the new
  // type's highest cost and decay in, exactly like a restarted link.
  const double initial = o.metric->initial_cost();
  o.last_candidate = initial;
  // ARPALINT-ALLOW(hot-path-alloc): persistent scratch retains capacity
  candidate_scratch_.assign(out_.size(), 0.0);
  for (std::size_t i = 0; i < out_.size(); ++i) {
    candidate_scratch_[i] = out_[i].reported;
  }
  candidate_scratch_[static_cast<std::size_t>(&o - out_.data())] = initial;
  originate_update(candidate_scratch_);
}
// ARPALINT-HOTPATH-END

}  // namespace arpanet::sim
