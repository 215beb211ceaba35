#include "src/obs/trace_sink.h"

#include <algorithm>
#include <stdexcept>

namespace arpanet::obs {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kOriginated: return "originated";
    case TraceEventKind::kEnqueued: return "enqueued";
    case TraceEventKind::kTransmitted: return "transmitted";
    case TraceEventKind::kDelivered: return "delivered";
    case TraceEventKind::kDroppedQueue: return "dropped-queue";
    case TraceEventKind::kDroppedLoop: return "dropped-loop";
    case TraceEventKind::kDroppedUnreachable: return "dropped-unreachable";
  }
  return "?";
}

void RecordingTraceSink::on_cost_reported(net::LinkId link, util::SimTime at,
                                          double cost) {
  costs_.at(link).emplace_back(at, cost);
}

void RecordingTraceSink::on_utilization(net::LinkId link, util::SimTime at,
                                        double busy_fraction) {
  utilizations_.at(link).emplace_back(at, busy_fraction);
}

std::size_t RecordingTraceSink::total_samples() const {
  std::size_t total = 0;
  for (const auto& s : costs_) total += s.size();
  for (const auto& s : utilizations_) total += s.size();
  return total;
}

PacketTracer::PacketTracer(std::size_t capacity) : capacity_{capacity} {
  if (capacity == 0) throw std::invalid_argument("tracer capacity must be > 0");
  ring_.reserve(capacity);
}

void PacketTracer::record(util::SimTime at, TraceEventKind kind,
                          std::uint64_t packet_id, net::NodeId node,
                          net::LinkId link) {
  if (filter_ && *filter_ != packet_id) return;
  const TraceEvent event{at, kind, packet_id, node, link};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    wrapped_ = true;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<TraceEvent> PacketTracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<long>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(next_));
  } else {
    out = ring_;
  }
  return out;
}

std::vector<TraceEvent> PacketTracer::events_for(
    std::uint64_t packet_id) const {
  std::vector<TraceEvent> out = events();
  std::erase_if(out, [packet_id](const TraceEvent& e) {
    return e.packet_id != packet_id;
  });
  return out;
}

void PacketTracer::clear() {
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  recorded_ = 0;
}

}  // namespace arpanet::obs
