#include "src/sim/simulator.h"

#include <stdexcept>

#include "src/util/check.h"

namespace arpanet::sim {

void Simulator::schedule_at(util::SimTime at, SimEvent ev, std::uint64_t key) {
  if (at < now_) throw std::logic_error("scheduling into the past");
  queue_.schedule(at, ev, key);
}

void Simulator::run_until(util::SimTime end) {
  while (!queue_.empty() && queue_.next_time() <= end) {
    step();
  }
  if (now_ < end) now_ = end;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  util::SimTime at;
  SimEvent ev = queue_.pop(at);
  // The virtual clock never runs backwards: schedule_at rejects past times,
  // and the queue pops in (time, key) order.
  ARPA_DCHECK(at >= now_) << "event queue popped " << at.us()
                          << "us behind the clock " << now_.us() << "us";
  now_ = at;
  ++processed_;
  ev.fire();
  return true;
}

}  // namespace arpanet::sim
