#include "src/net/link.hpp"

#include <algorithm>

namespace dvemig::net {

void Link::transmit(Packet&& p) {
  DVEMIG_EXPECTS(config_.bandwidth_bps > 0);
  FaultVerdict fault;
  if (fault_hook_) fault = fault_hook_->on_transmit(*this, p);
  const std::size_t wire = p.wire_size();
  const auto serialization =
      SimTime::nanoseconds(static_cast<std::int64_t>(static_cast<double>(wire) * 8.0 /
                                                     config_.bandwidth_bps * 1e9));

  const SimTime start = std::max(engine_->now(), busy_until_);
  busy_until_ = start + serialization;
  const SimTime arrival = busy_until_ + config_.latency;

  packets_ += 1;
  bytes_ += wire;

  if (!sink_) return;  // unconnected link drops (like an unplugged cable)
  if (fault.drop && !fault.duplicate) return;  // lost on the wire
  if (fault.duplicate && !fault.drop) {
    // Second copy delivers one serialization slot later, as if retransmitted
    // by a confused middlebox right behind the original.
    schedule_delivery(arrival + serialization + fault.extra_delay, Packet(p));
  }
  schedule_delivery(arrival + fault.extra_delay, std::move(p));
}

void Link::schedule_delivery(SimTime when, Packet&& p) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back(std::move(p));
  } else {
    slot = free_.back();
    free_.pop_back();
    parked_[slot] = std::move(p);
  }
  // The closure is a pointer and an index, trivially copyable, so std::function
  // stores it inline and the hop allocates nothing. Each event is bound to its
  // own slot, not to a queue position: under the model checker's choice hook a
  // later delivery can fire first, and it still carries its own packet.
  engine_->schedule_at(when, [this, slot] { deliver(slot); });
}

void Link::deliver(std::uint32_t slot) {
  // Move out and free the slot before the sink runs: the sink may transmit on
  // this link again, which can reuse the slot or grow the array.
  Packet p = std::move(parked_[slot]);
  free_.push_back(slot);
  if (sink_) sink_(std::move(p));
}

}  // namespace dvemig::net
