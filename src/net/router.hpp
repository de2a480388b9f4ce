// Single-IP-address cluster router (Section II-A).
//
// Every DVE server node's public interface carries the *same* public IP. The router
// does no NAT and keeps no per-connection state: it simply broadcasts each packet
// arriving from the internet side to ALL cluster nodes. Only the node whose socket
// table (or capture filter) matches the packet consumes it; the rest drop it.
//
// This broadcast property is what makes in-cluster socket migration free of router
// updates, and it is the foundation of the incoming-packet-loss prevention mechanism:
// the migration *destination* already sees client packets before the socket exists
// there.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/link.hpp"

namespace dvemig::net {

class BroadcastRouter {
 public:
  BroadcastRouter(sim::Engine& engine, Ipv4Addr cluster_public_ip, LinkConfig link_config)
      : engine_(&engine), cluster_ip_(cluster_public_ip), link_config_(link_config) {}

  Ipv4Addr cluster_ip() const { return cluster_ip_; }

  /// Attach a cluster node's public interface. All nodes share cluster_ip();
  /// `node_key` only identifies the physical port. Returns the node's tx sink.
  PacketSink attach_node(std::uint32_t node_key, PacketSink sink);

  void detach_node(std::uint32_t node_key);

  /// Attach an internet-side host (a game client) with its own public address.
  /// Returns the client's tx sink.
  PacketSink attach_client(Ipv4Addr client_addr, PacketSink sink);

  void detach_client(Ipv4Addr client_addr);

  std::uint64_t broadcast_copies() const { return broadcast_copies_; }
  std::uint64_t to_clients() const { return to_clients_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct PortState {
    std::unique_ptr<Link> uplink;
    std::unique_ptr<Link> downlink;
    bool alive{true};
  };

  std::shared_ptr<PortState> make_port(PacketSink sink, PacketSink on_ingress);
  void from_client(Packet&& p);
  void from_node(Packet&& p);

  sim::Engine* engine_;
  Ipv4Addr cluster_ip_;
  LinkConfig link_config_;
  std::unordered_map<std::uint32_t, std::shared_ptr<PortState>> nodes_;
  std::unordered_map<Ipv4Addr, std::shared_ptr<PortState>> clients_;
  std::uint64_t broadcast_copies_{0};
  std::uint64_t to_clients_{0};
  std::uint64_t dropped_{0};
};

}  // namespace dvemig::net
