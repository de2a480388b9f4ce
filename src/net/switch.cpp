#include "src/net/switch.hpp"

namespace dvemig::net {

std::size_t Switch::rail_of(const Packet& p, std::size_t rails) {
  if (rails <= 1) return 0;
  // Symmetric 5-tuple hash: src/dst (and sport/dport) enter commutatively so
  // both directions of a connection ride the same rail, preserving FIFO
  // ordering per flow. Broadcast floods always take rail 0.
  if (p.dst.is_broadcast()) return 0;
  const std::uint64_t h = std::uint64_t{p.src.value} + std::uint64_t{p.dst.value} +
                          std::uint64_t{p.sport()} + std::uint64_t{p.dport()} +
                          std::uint64_t{static_cast<std::uint8_t>(p.proto)};
  return static_cast<std::size_t>(h % rails);
}

PacketSink Switch::attach(Ipv4Addr addr, PacketSink sink) {
  DVEMIG_EXPECTS(!addr.is_broadcast() && addr != Ipv4Addr::any());
  DVEMIG_EXPECTS(!ports_.contains(addr));
  DVEMIG_EXPECTS(link_config_.rails >= 1);

  const auto rails = static_cast<std::size_t>(link_config_.rails);
  auto port = std::make_shared<PortState>();
  // The fan-in side shares one delivery sink across rails (the host does not
  // care which physical link a frame arrived on); the fan-out side is chosen
  // per packet by rail_of.
  auto shared_sink = std::make_shared<PacketSink>(std::move(sink));
  for (std::size_t r = 0; r < rails; ++r) {
    auto up = std::make_unique<Link>(*engine_, link_config_);
    auto down = std::make_unique<Link>(*engine_, link_config_);
    down->set_sink([shared_sink](Packet&& p) {
      if (*shared_sink) (*shared_sink)(std::move(p));
    });
    up->set_sink([this, addr](Packet&& p) { forward(addr, std::move(p)); });
    port->uplinks.push_back(std::move(up));
    port->downlinks.push_back(std::move(down));
  }
  ports_.emplace(addr, port);

  // The returned sink keeps the port alive even if detach() races with an
  // in-flight transmission; the alive flag stops delivery after detach.
  return [port, rails](Packet&& p) {
    if (!port->alive) return;
    port->uplinks[rail_of(p, rails)]->transmit(std::move(p));
  };
}

void Switch::detach(Ipv4Addr addr) {
  auto it = ports_.find(addr);
  if (it == ports_.end()) return;
  it->second->alive = false;
  for (auto& down : it->second->downlinks) down->set_sink(nullptr);
  ports_.erase(it);
}

void Switch::forward(Ipv4Addr from, Packet&& p) {
  // Frames are steered by the resolved link-layer destination when present (the
  // sender's dst-cache decision), falling back to the IP destination.
  const Ipv4Addr hw_dst = p.link_dst == Ipv4Addr::any() ? p.dst : p.link_dst;
  if (p.dst.is_broadcast()) {
    for (auto& [addr, port] : ports_) {
      if (addr == from || !port->alive) continue;
      forwarded_ += 1;
      port->downlinks[0]->transmit(Packet(p));  // copy per receiver
    }
    return;
  }
  auto it = ports_.find(hw_dst);
  if (it == ports_.end() || !it->second->alive) {
    dropped_ += 1;
    return;
  }
  forwarded_ += 1;
  auto& port = *it->second;
  port.downlinks[rail_of(p, port.downlinks.size())]->transmit(std::move(p));
}

}  // namespace dvemig::net
