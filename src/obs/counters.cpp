#include "src/obs/counters.h"

#include <algorithm>
#include <array>

namespace arpanet::obs {

namespace {

constexpr std::array<Counters::Entry, 20> kCatalog{{
    {"spf_full", &Counters::spf_full, Counters::Merge::kSum},
    {"spf_incremental", &Counters::spf_incremental, Counters::Merge::kSum},
    {"spf_skipped", &Counters::spf_skipped, Counters::Merge::kSum},
    {"spf_nodes_touched", &Counters::spf_nodes_touched, Counters::Merge::kSum},
    {"updates_originated", &Counters::updates_originated,
     Counters::Merge::kSum},
    {"update_packets_sent", &Counters::update_packets_sent,
     Counters::Merge::kSum},
    {"packets_forwarded", &Counters::packets_forwarded, Counters::Merge::kSum},
    {"packets_dropped", &Counters::packets_dropped, Counters::Merge::kSum},
    {"events_processed", &Counters::events_processed, Counters::Merge::kSum},
    {"event_queue_peak_depth", &Counters::event_queue_peak_depth,
     Counters::Merge::kMax},
    {"event_queue_slab_slots", &Counters::event_queue_slab_slots,
     Counters::Merge::kMax},
    {"event_queue_resizes", &Counters::event_queue_resizes,
     Counters::Merge::kSum},
    {"event_queue_overflow_scheduled",
     &Counters::event_queue_overflow_scheduled, Counters::Merge::kSum},
    {"packet_pool_slots", &Counters::packet_pool_slots, Counters::Merge::kMax},
    {"packet_pool_acquired", &Counters::packet_pool_acquired,
     Counters::Merge::kSum},
    {"packet_pool_recycled", &Counters::packet_pool_recycled,
     Counters::Merge::kSum},
    {"invariant_period_checks", &Counters::invariant_period_checks,
     Counters::Merge::kSum},
    {"invariant_report_checks", &Counters::invariant_report_checks,
     Counters::Merge::kSum},
    {"alloc_guard_scopes", &Counters::alloc_guard_scopes,
     Counters::Merge::kSum},
    {"alloc_guard_bytes_peak", &Counters::alloc_guard_bytes_peak,
     Counters::Merge::kMax},
}};

}  // namespace

std::span<const Counters::Entry> Counters::catalog() { return kCatalog; }

Counters& Counters::operator+=(const Counters& other) {
  for (const Entry& e : kCatalog) {
    if (e.merge == Merge::kMax) {
      this->*e.member = std::max(this->*e.member, other.*e.member);
    } else {
      this->*e.member += other.*e.member;
    }
  }
  return *this;
}

}  // namespace arpanet::obs
