// In-cluster Ethernet switch for the private (local) network.
//
// Hosts attach with their local IP address. Forwarding is by destination address;
// the limited-broadcast address 255.255.255.255 floods all ports except the sender
// (this carries the conductor daemons' discovery and heartbeat datagrams).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/link.hpp"

namespace dvemig::net {

class Switch {
 public:
  Switch(sim::Engine& engine, LinkConfig link_config)
      : engine_(&engine), link_config_(link_config) {}

  /// Attach a host. `sink` receives packets forwarded to `addr`.
  /// Returns a sink the host uses to transmit into the switch.
  PacketSink attach(Ipv4Addr addr, PacketSink sink);

  /// Detach a host (machines "may join and leave at any time", Section IV).
  void detach(Ipv4Addr addr);

  bool attached(Ipv4Addr addr) const { return ports_.contains(addr); }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_unroutable() const { return dropped_; }

  /// Deterministic symmetric flow->rail pinning for aggregated ports
  /// (LinkConfig::rails > 1): both directions of a connection hash to the same
  /// rail, and distinct consecutive ports spread across rails.
  static std::size_t rail_of(const Packet& p, std::size_t rails);

 private:
  struct PortState {
    // One Link per rail and direction; index = rail_of(packet, rails).
    std::vector<std::unique_ptr<Link>> uplinks;    // host -> switch
    std::vector<std::unique_ptr<Link>> downlinks;  // switch -> host
    bool alive{true};  // false after detach; pending deliveries drop
  };

  void forward(Ipv4Addr from, Packet&& p);

  sim::Engine* engine_;
  LinkConfig link_config_;
  std::unordered_map<Ipv4Addr, std::shared_ptr<PortState>> ports_;
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_{0};
};

}  // namespace dvemig::net
