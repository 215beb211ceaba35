// The one observer a sim::Network knows: per-link cost and utilization
// series and per-packet events.
//
// ARPALINT-LAYER(sim): on_packet hands observers the sim::Packet itself,
// so this header sits in sim's layer of the include DAG
//
// Jonglez et al. (PAPERS.md) make the case that smoothing/hysteresis
// metrics are only debuggable when their per-link dynamics are recorded as
// time series, and Fukś et al. that distributions beat point averages. A
// TraceSink attached to a sim::Network (attach_trace_sink; one at a time,
// shards == 1 only) receives
//   * every reported cost the moment an update is originated,
//   * every link's measured busy fraction once per measurement period, and
//   * every packet event: origination, enqueue, transmission, delivery and
//     each kind of drop,
// without the network pre-committing to a storage format. Every hook has an
// empty default, so a sink overrides only the series it wants. Detached
// costs one branch per event.
//
// RecordingTraceSink stores both per-link series in memory (tools and
// tests); PacketTracer keeps a bounded ring of packet events for chasing
// one packet through a run; sim::HostFlowLayer observes deliveries to
// return RFNMs.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/net/topology.h"
#include "src/sim/packet.h"
#include "src/util/units.h"

namespace arpanet::obs {

enum class TraceEventKind : std::uint8_t {
  kOriginated,
  kEnqueued,
  kTransmitted,  ///< finished serialization onto a link
  kDelivered,
  kDroppedQueue,
  kDroppedLoop,
  kDroppedUnreachable,
};

[[nodiscard]] const char* to_string(TraceEventKind kind);

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A PSN originated an update advertising `cost` for its link `link`.
  virtual void on_cost_reported(net::LinkId /*link*/, util::SimTime /*at*/,
                                double /*cost*/) {}

  /// One measurement period closed on `link` with this busy fraction.
  virtual void on_utilization(net::LinkId /*link*/, util::SimTime /*at*/,
                              double /*busy_fraction*/) {}

  /// `pkt` went through `kind` at `node`, on `link` if one is involved
  /// (net::kInvalidLink otherwise). kDelivered arrives after the network
  /// has counted the delivery in its statistics.
  virtual void on_packet(util::SimTime /*at*/, TraceEventKind /*kind*/,
                         const sim::Packet& /*pkt*/, net::NodeId /*node*/,
                         net::LinkId /*link*/) {}
};

/// Stores both per-link series in memory.
class RecordingTraceSink final : public TraceSink {
 public:
  using Sample = std::pair<util::SimTime, double>;

  explicit RecordingTraceSink(std::size_t link_count)
      : costs_(link_count), utilizations_(link_count) {}

  void on_cost_reported(net::LinkId link, util::SimTime at,
                        double cost) override;
  void on_utilization(net::LinkId link, util::SimTime at,
                      double busy_fraction) override;

  [[nodiscard]] const std::vector<Sample>& costs(net::LinkId link) const {
    return costs_.at(link);
  }
  [[nodiscard]] const std::vector<Sample>& utilizations(
      net::LinkId link) const {
    return utilizations_.at(link);
  }
  [[nodiscard]] std::size_t link_count() const { return costs_.size(); }

  /// Total samples recorded across all links (both series).
  [[nodiscard]] std::size_t total_samples() const;

 private:
  std::vector<std::vector<Sample>> costs_;
  std::vector<std::vector<Sample>> utilizations_;
};

struct TraceEvent {
  util::SimTime at;
  TraceEventKind kind = TraceEventKind::kOriginated;
  std::uint64_t packet_id = 0;
  net::NodeId node = net::kInvalidNode;  ///< where it happened
  net::LinkId link = net::kInvalidLink;  ///< link involved (if any)
};

/// A bounded in-memory recorder of packet events — the tool you reach for
/// when a simulation result looks wrong ("which links did packet 4711
/// actually cross, and where did it sit in queue?"). Keeps the most recent
/// events in a ring buffer, optionally for one packet id only.
class PacketTracer final : public TraceSink {
 public:
  /// Keeps at most `capacity` most-recent events (ring buffer).
  explicit PacketTracer(std::size_t capacity = 65536);

  /// Restrict recording to one packet id (common when re-running a seed to
  /// chase a specific packet).
  void filter_packet(std::uint64_t id) { filter_ = id; }
  void clear_filter() { filter_.reset(); }

  void on_packet(util::SimTime at, TraceEventKind kind, const sim::Packet& pkt,
                 net::NodeId node, net::LinkId link) override {
    record(at, kind, pkt.id, node, link);
  }

  void record(util::SimTime at, TraceEventKind kind, std::uint64_t packet_id,
              net::NodeId node, net::LinkId link = net::kInvalidLink);

  /// Events in chronological order (oldest survivor first).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Just one packet's events, chronological.
  [[nodiscard]] std::vector<TraceEvent> events_for(
      std::uint64_t packet_id) const;

  [[nodiscard]] std::uint64_t recorded_total() const { return recorded_; }
  void clear();

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t recorded_ = 0;
  std::optional<std::uint64_t> filter_;
};

}  // namespace arpanet::obs
