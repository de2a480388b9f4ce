#include "src/stack/udp_socket.hpp"

#include "src/common/log.hpp"

namespace dvemig::stack {

UdpSocket::~UdpSocket() = default;

void UdpSocket::bind(net::Ipv4Addr addr, net::Port port) {
  DVEMIG_EXPECTS(!cb_.bound);
  DVEMIG_EXPECTS(addr == net::Ipv4Addr::any() || stack_->has_addr(addr));
  if (port == 0) port = stack_->table().allocate_ephemeral_port(SocketType::udp);
  DVEMIG_EXPECTS(!stack_->table().port_bound(port, SocketType::udp));
  local_ = net::Endpoint{addr, port};
  cb_.bound = true;
  attach();
}

void UdpSocket::connect(net::Endpoint remote) {
  if (!cb_.bound) bind(stack_->primary_addr(), 0);
  remote_ = remote;
  cb_.connected = true;
}

void UdpSocket::send_to(net::Endpoint to, Bytes data) {
  DVEMIG_EXPECTS(!migration_disabled());
  if (!cb_.bound) bind(stack_->primary_addr(), 0);
  net::Ipv4Addr src = local_.addr;
  if (src == net::Ipv4Addr::any()) src = stack_->primary_addr();
  net::Packet p = net::make_udp(net::Endpoint{src, local_.port}, to, std::move(data));
  cb_.datagrams_out += 1;
  stack_->send_from(*this, std::move(p));
}

void UdpSocket::send(Bytes data) {
  DVEMIG_EXPECTS(cb_.connected);
  send_to(remote_, std::move(data));
}

std::optional<UdpDatagram> UdpSocket::recv() {
  if (cb_.receive_queue.empty()) return std::nullopt;
  UdpDatagram d = std::move(cb_.receive_queue.front());
  cb_.receive_queue.pop_front();
  return d;
}

void UdpSocket::close() {
  unhash();
  cb_.bound = false;
  on_readable_ = nullptr;
}

void UdpSocket::unhash() {
  if (hashed_bound_) stack_->table().bhash_remove(*this, local_.port);
  hashed_bound_ = false;
  dst_cache_ = net::Ipv4Addr::any();
}

void UdpSocket::detach() {
  unhash();
  migration_disabled_ = true;
}

void UdpSocket::attach() {
  migration_disabled_ = false;
  if (cb_.bound && !hashed_bound_) stack_->table().bhash_insert(shared_from_this(), local_.port);
  hashed_bound_ = cb_.bound;
}

void UdpSocket::datagram_arrived(const net::Packet& p) {
  DVEMIG_ASSERT(!migration_disabled());
  if (cb_.connected &&
      (p.src != remote_.addr || p.udp.sport != remote_.port)) {
    return;  // connected sockets only accept their peer
  }
  if (cb_.receive_queue.size() >= cb_.rcvbuf_datagrams) {
    cb_.dropped_rcvbuf += 1;
    return;
  }
  cb_.datagrams_in += 1;
  cb_.receive_queue.push_back(
      UdpDatagram{net::Endpoint{p.src, p.udp.sport}, p.payload});
  if (on_readable_) on_readable_();
}

void UdpSocket::set_endpoints(net::Endpoint local, net::Endpoint remote, bool bound,
                              bool connected) {
  local_ = local;
  remote_ = remote;
  cb_.bound = bound;
  cb_.connected = connected;
}

}  // namespace dvemig::stack
