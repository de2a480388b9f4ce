#include "src/stack/net_stack.hpp"

#include <algorithm>

#include "src/common/log.hpp"
#include "src/common/serial.hpp"
#include "src/stack/tcp_socket.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::stack {

NetStack::NetStack(sim::Engine& engine, std::string name, SimDuration clock_offset)
    : engine_(&engine),
      name_(std::move(name)),
      clock_offset_(clock_offset),
      isn_rng_(fnv1a({reinterpret_cast<const std::uint8_t*>(name_.data()), name_.size()})) {
  DVEMIG_EXPECTS(clock_offset.ns >= 0);
  // Spread each host's ephemeral-port scan start across the range so two hosts
  // rarely mint the same source port (matters when sockets later migrate).
  table_.set_ephemeral_start(
      static_cast<net::Port>(49152 + isn_rng_.next_below(65536 - 49152)));
}

NetStack::~NetStack() = default;

void NetStack::add_interface(net::Ipv4Addr addr, net::PacketSink tx) {
  DVEMIG_EXPECTS(addr != net::Ipv4Addr::any() && !addr.is_broadcast());
  DVEMIG_EXPECTS(!has_addr(addr));
  interfaces_.push_back(Interface{addr, std::move(tx)});
}

bool NetStack::has_addr(net::Ipv4Addr addr) const {
  return std::any_of(interfaces_.begin(), interfaces_.end(),
                     [&](const Interface& i) { return i.addr == addr; });
}

net::Ipv4Addr NetStack::primary_addr() const {
  DVEMIG_EXPECTS(!interfaces_.empty());
  return interfaces_.front().addr;
}

const NetStack::Interface* NetStack::route_interface(net::Ipv4Addr src) const {
  for (const Interface& i : interfaces_) {
    if (i.addr == src) return &i;
  }
  return interfaces_.empty() ? nullptr : &interfaces_.front();
}

std::uint32_t NetStack::next_isn() { return static_cast<std::uint32_t>(isn_rng_.next_u64()); }

void NetStack::rx(net::Packet p) {
  stats_.rx_packets += 1;
  switch (netfilter_.run(Hook::local_in, p)) {
    case Verdict::stolen:
      stats_.rx_hook_stolen += 1;
      return;
    case Verdict::drop:
      stats_.rx_hook_dropped += 1;
      return;
    case Verdict::accept:
      break;
  }
  if (!net::checksum_ok(p)) {
    stats_.rx_bad_checksum += 1;
    return;
  }
  if (demux(p)) {
    stats_.rx_delivered += 1;
  } else {
    stats_.rx_no_socket += 1;
  }
}

void NetStack::reinject(net::Packet p) {
  // okfn() path: enters at the equivalent of ip_rcv_finish, i.e. *past* the
  // LOCAL_IN hooks (so a still-armed capture filter cannot re-steal its own
  // reinjected packets), but still subject to transport checksum verification.
  stats_.reinjected += 1;
  if (!net::checksum_ok(p)) {
    stats_.rx_bad_checksum += 1;
    return;
  }
  if (demux(p)) {
    stats_.rx_delivered += 1;
  } else {
    stats_.rx_no_socket += 1;
  }
}

bool NetStack::demux(net::Packet& p) {
  if (p.proto == net::IpProto::tcp) {
    const FourTuple tuple{net::Endpoint{p.dst, p.tcp.dport},
                          net::Endpoint{p.src, p.tcp.sport}};
    if (auto sock = table_.ehash_lookup(tuple)) {
      sock->segment_arrived(std::move(p));
      return true;
    }
    for (const auto& s : table_.bhash_lookup(p.tcp.dport)) {
      if (s->type() != SocketType::tcp) continue;
      auto listener = std::static_pointer_cast<TcpSocket>(s);
      if (listener->state() != TcpState::listen) continue;
      if (listener->local().addr != net::Ipv4Addr::any() &&
          listener->local().addr != p.dst) {
        continue;
      }
      listener->segment_arrived(std::move(p));
      return true;
    }
    // No owner. Crucially, NO RST is generated: in the single-IP broadcast
    // cluster every node sees every client packet, and only the port's owner may
    // answer — an RST from a non-owner would tear down other nodes' connections.
    return false;
  }

  // UDP. Limited-broadcast datagrams are delivered regardless of the socket's
  // bound address (the conductor's heartbeat relies on this).
  for (const auto& s : table_.bhash_lookup(p.udp.dport)) {
    if (s->type() != SocketType::udp) continue;
    auto sock = std::static_pointer_cast<UdpSocket>(s);
    if (!p.dst.is_broadcast() && sock->local().addr != net::Ipv4Addr::any() &&
        sock->local().addr != p.dst) {
      continue;
    }
    sock->datagram_arrived(p);
    return true;
  }
  return false;
}

void NetStack::send_from(Socket& sock, net::Packet p) {
  p.origin_sock_id = sock.sock_id();
  switch (netfilter_.run(Hook::local_out, p)) {
    case Verdict::stolen:
      return;
    case Verdict::drop:
      return;
    case Verdict::accept:
      break;
  }
  // Destination-cache routing: connection-oriented sockets resolve their next
  // hop once and keep reusing the cached entry even if a LOCAL_OUT hook rewrote
  // the IP header — exactly the stale-route hazard of Section V-D that the
  // translation daemon fixes by replacing the cache entry. Unconnected UDP
  // sockets (transd, conductor control traffic) route per packet, as in Linux.
  const bool per_socket_route =
      sock.type() == SocketType::tcp ||
      static_cast<const UdpSocket&>(sock).cb().connected;
  if (per_socket_route) {
    if (sock.dst_cache() == net::Ipv4Addr::any()) sock.set_dst_cache(p.dst);
    p.link_dst = sock.dst_cache();
  } else {
    p.link_dst = p.dst;
  }

  const Interface* iface = route_interface(p.src);
  if (iface == nullptr || !iface->tx) return;  // no route (host has no links)
  stats_.tx_packets += 1;
  iface->tx(std::move(p));
}

std::shared_ptr<UdpSocket> NetStack::make_udp() {
  auto sock = std::make_shared<UdpSocket>(*this, next_sock_id());
  socket_registry_.push_back(sock);
  return sock;
}

std::shared_ptr<TcpSocket> NetStack::make_tcp() {
  auto sock = std::make_shared<TcpSocket>(*this, next_sock_id());
  socket_registry_.push_back(sock);
  return sock;
}

void NetStack::for_each_socket(const std::function<void(const Socket&)>& fn) const {
  std::erase_if(socket_registry_, [](const auto& w) { return w.expired(); });
  for (const auto& weak : socket_registry_) {
    if (const auto sock = weak.lock()) fn(*sock);
  }
}

}  // namespace dvemig::stack
