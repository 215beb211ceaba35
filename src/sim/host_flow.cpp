#include "src/sim/host_flow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace arpanet::sim {

namespace {

/// Pair key for hook dispatch.
std::uint64_t key(net::NodeId src, net::NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// ARPANET messages were capped at eight packets.
constexpr int kMaxPacketsPerMessage = 8;

}  // namespace

HostFlowLayer::HostFlowLayer(Network& net, HostFlowConfig cfg)
    : net_{net}, cfg_{cfg}, start_{net.now()} {
  if (cfg.window < 1 || cfg.mean_message_bits <= 0 ||
      cfg.packet_bits_max <= 0 || cfg.max_retransmits < 0) {
    throw std::invalid_argument("bad HostFlowConfig");
  }
  net_.set_delivery_hook([this](const Packet& pkt) { on_delivered(pkt); });
}

void HostFlowLayer::add_pair(net::NodeId src, net::NodeId dst, double bps) {
  if (src == dst) throw std::invalid_argument("self traffic");
  const double msgs_per_sec = bps / cfg_.mean_message_bits;
  const std::uint64_t stream = key(src, dst);
  pairs_.push_back(std::make_unique<Pair>(Pair{
      src, dst, traffic::PoissonProcess{msgs_per_sec},
      util::Rng{net_.config().seed}.split(stream),
      util::Rng{net_.config().seed ^ 0x90edULL}.split(stream),
      {}, {}}));
  pair_index_[stream] = pairs_.size() - 1;
  schedule_message(pairs_.size() - 1);
}

void HostFlowLayer::add_traffic(const traffic::TrafficMatrix& matrix) {
  for (net::NodeId s = 0; s < matrix.nodes(); ++s) {
    for (net::NodeId d = 0; d < matrix.nodes(); ++d) {
      if (matrix.at(s, d) > 0.0) add_pair(s, d, matrix.at(s, d));
    }
  }
}

void HostFlowLayer::schedule_message(std::size_t pair_index) {
  Pair& pair = *pairs_[pair_index];
  net_.simulator().schedule_in(
      pair.arrivals.next_gap(pair.arrival_rng),
      SimEvent::host_flow_message(*this,
                                  static_cast<std::uint32_t>(pair_index)),
      net_.psn(pair.src).next_event_key());
}

void HostFlowLayer::handle_event(SimEvent& ev) {
  switch (ev.kind()) {
    case SimEvent::Kind::kHostFlowMessage: {
      Pair& p = *pairs_[ev.index()];
      Message msg;
      msg.id = ++next_message_id_;
      // Shifted-exponential message sizes, truncated to the 8-packet cap.
      const double cap = cfg_.packet_bits_max * kMaxPacketsPerMessage;
      msg.bits = std::min(
          64.0 + p.size_rng.exponential(cfg_.mean_message_bits - 64.0), cap);
      msg.packet_count = std::max(
          1, static_cast<int>(std::ceil(msg.bits / cfg_.packet_bits_max)));
      msg.submitted = net_.now();
      ++messages_offered_;
      p.backlog.push_back(msg);
      try_send(p);
      schedule_message(ev.index());
      break;
    }
    case SimEvent::Kind::kHostFlowTimeout:
      on_timeout(ev.index(), ev.id(), ev.generation());
      break;
    default:
      throw std::logic_error("host-flow layer dispatched unknown event kind");
  }
}

void HostFlowLayer::try_send(Pair& pair) {
  while (static_cast<int>(pair.outstanding.size()) < cfg_.window &&
         !pair.backlog.empty()) {
    Message msg = pair.backlog.front();
    pair.backlog.pop_front();
    pair.outstanding.emplace(msg.id, msg);
    transmit_message(pair, msg);
    arm_timeout(pair_index_.at(key(pair.src, pair.dst)), msg.id, 0);
  }
}

void HostFlowLayer::transmit_message(Pair& pair, const Message& msg) {
  double remaining = msg.bits;
  for (int i = 0; i < msg.packet_count; ++i) {
    Packet pkt;
    pkt.kind = Packet::Kind::kData;
    pkt.dst = pair.dst;
    pkt.bits = std::min(remaining, cfg_.packet_bits_max);
    remaining -= pkt.bits;
    pkt.message_id = msg.id;
    pkt.pkt_index = static_cast<std::uint16_t>(i);
    pkt.pkt_count = static_cast<std::uint16_t>(msg.packet_count);
    net_.psn(pair.src).originate_packet(std::move(pkt));
  }
}

void HostFlowLayer::arm_timeout(std::size_t pair_index, std::uint64_t message_id,
                                int retransmit_generation) {
  net_.simulator().schedule_in(
      cfg_.rfnm_timeout,
      SimEvent::host_flow_timeout(*this,
                                  static_cast<std::uint32_t>(pair_index),
                                  message_id, retransmit_generation),
      net_.psn(pairs_[pair_index]->src).next_event_key());
}

void HostFlowLayer::on_timeout(std::size_t pair_index, std::uint64_t message_id,
                               int retransmit_generation) {
  Pair& pair = *pairs_[pair_index];
  const auto it = pair.outstanding.find(message_id);
  if (it == pair.outstanding.end()) return;  // acked meanwhile
  if (it->second.retransmits != retransmit_generation) return;  // stale
  if (it->second.retransmits >= cfg_.max_retransmits) {
    ++messages_abandoned_;
    pair.outstanding.erase(it);
    try_send(pair);
    return;
  }
  ++it->second.retransmits;
  ++retransmissions_;
  transmit_message(pair, it->second);
  arm_timeout(pair_index, message_id, it->second.retransmits);
}

void HostFlowLayer::on_delivered(const Packet& pkt) {
  if (pkt.message_id == 0) return;  // plain datagram traffic

  if (pkt.rfnm) {
    // RFNM arriving back at the message source.
    const auto pit = pair_index_.find(key(pkt.dst, pkt.src));
    if (pit == pair_index_.end()) return;
    Pair& pair = *pairs_[pit->second];
    const auto it = pair.outstanding.find(pkt.message_id);
    if (it == pair.outstanding.end()) return;  // duplicate RFNM
    ++messages_completed_;
    completed_bits_ += it->second.bits;
    message_delay_ms_.add((net_.now() - it->second.submitted).ms());
    pair.outstanding.erase(it);
    try_send(pair);
    return;
  }

  // Data packet at the destination: reassemble. Per-index bits, so
  // retransmitted duplicates of one packet can't complete a message that is
  // genuinely missing another.
  if (completed_at_dst_.contains(pkt.message_id)) {
    // Duplicate from a retransmission whose original completed: the RFNM
    // was lost or late; send it again (idempotent at the source).
  } else {
    auto& mask = reassembly_[pkt.message_id];
    mask |= 1u << pkt.pkt_index;
    if (std::popcount(static_cast<unsigned>(mask)) < pkt.pkt_count) return;
    reassembly_.erase(pkt.message_id);
    completed_at_dst_.insert(pkt.message_id);
  }
  Packet rfnm;
  rfnm.kind = Packet::Kind::kData;
  rfnm.dst = pkt.src;
  rfnm.bits = cfg_.rfnm_bits;
  rfnm.message_id = pkt.message_id;
  rfnm.pkt_count = 1;
  rfnm.rfnm = true;
  net_.psn(pkt.dst).originate_packet(std::move(rfnm));
}

double HostFlowLayer::goodput_bps() const {
  const double elapsed = (net_.now() - start_).sec();
  return elapsed > 0 ? completed_bits_ / elapsed : 0.0;
}

}  // namespace arpanet::sim
