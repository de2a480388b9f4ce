#include "src/net/router.hpp"

namespace dvemig::net {

std::shared_ptr<BroadcastRouter::PortState> BroadcastRouter::make_port(
    PacketSink sink, PacketSink on_ingress) {
  auto port = std::make_shared<PortState>();
  port->uplink = std::make_unique<Link>(*engine_, link_config_);
  port->downlink = std::make_unique<Link>(*engine_, link_config_);
  port->downlink->set_sink(std::move(sink));
  port->uplink->set_sink(std::move(on_ingress));
  return port;
}

PacketSink BroadcastRouter::attach_node(std::uint32_t node_key, PacketSink sink) {
  DVEMIG_EXPECTS(!nodes_.contains(node_key));
  auto port = make_port(std::move(sink), [this](Packet&& p) { from_node(std::move(p)); });
  nodes_.emplace(node_key, port);
  return [port](Packet&& p) {
    if (port->alive) port->uplink->transmit(std::move(p));
  };
}

void BroadcastRouter::detach_node(std::uint32_t node_key) {
  auto it = nodes_.find(node_key);
  if (it == nodes_.end()) return;
  it->second->alive = false;
  it->second->downlink->set_sink(nullptr);
  nodes_.erase(it);
}

PacketSink BroadcastRouter::attach_client(Ipv4Addr client_addr, PacketSink sink) {
  DVEMIG_EXPECTS(client_addr != cluster_ip_);
  DVEMIG_EXPECTS(!clients_.contains(client_addr));
  auto port = make_port(std::move(sink), [this](Packet&& p) { from_client(std::move(p)); });
  clients_.emplace(client_addr, port);
  return [port](Packet&& p) {
    if (port->alive) port->uplink->transmit(std::move(p));
  };
}

void BroadcastRouter::detach_client(Ipv4Addr client_addr) {
  auto it = clients_.find(client_addr);
  if (it == clients_.end()) return;
  it->second->alive = false;
  it->second->downlink->set_sink(nullptr);
  clients_.erase(it);
}

void BroadcastRouter::from_client(Packet&& p) {
  if (p.dst != cluster_ip_) {
    dropped_ += 1;  // not for this service
    return;
  }
  // The defining behaviour: no connection tracking, no MAC rewriting — a copy of
  // every incoming packet reaches every cluster node's public interface. The
  // copies are shallow: Packet's payload is copy-on-write, so the N broadcast
  // copies share one allocation until a receiver mutates its payload.
  for (auto& [key, port] : nodes_) {
    if (!port->alive) continue;
    broadcast_copies_ += 1;
    port->downlink->transmit(Packet(p));
  }
}

void BroadcastRouter::from_node(Packet&& p) {
  const Ipv4Addr hw_dst = p.link_dst == Ipv4Addr::any() ? p.dst : p.link_dst;
  auto it = clients_.find(hw_dst);
  if (it == clients_.end() || !it->second->alive) {
    dropped_ += 1;
    return;
  }
  to_clients_ += 1;
  it->second->downlink->transmit(std::move(p));
}

}  // namespace dvemig::net
