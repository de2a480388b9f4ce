// UDP socket.
//
// Migration-wise UDP is the easy case (Section V-C2): besides the socket identity,
// only the receive queue needs to be tracked and transferred, and a bound server
// socket must be unhashed before and rehashed after the move. The control block is
// public (`cb()`), as in the kernel, so the socket extractor in src/mig can reach it.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "src/common/serial.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/socket.hpp"

namespace dvemig::stack {

struct UdpDatagram {
  net::Endpoint from;
  Bytes data;  // shared with the packet that brought it
};

struct UdpCb {
  bool bound{false};
  bool connected{false};
  std::deque<UdpDatagram> receive_queue;
  std::uint64_t datagrams_in{0};
  std::uint64_t datagrams_out{0};
  std::uint64_t dropped_rcvbuf{0};
  std::size_t rcvbuf_datagrams{4096};  // queue cap, like SO_RCVBUF
};

class UdpSocket final : public Socket {
 public:
  using ReadableFn = std::function<void()>;

  UdpSocket(NetStack& stack, std::uint64_t sock_id)
      : Socket(stack, SocketType::udp, sock_id) {}
  ~UdpSocket() override;

  /// Bind to (addr, port); port 0 picks an ephemeral port. Inserts into bhash.
  void bind(net::Ipv4Addr addr, net::Port port);
  /// Set the default remote and filter incoming datagrams to it.
  void connect(net::Endpoint remote);

  void send_to(net::Endpoint to, Bytes data);
  void send(Bytes data);  // connected form

  /// Pop the oldest datagram, if any.
  std::optional<UdpDatagram> recv();
  std::size_t pending() const { return cb_.receive_queue.size(); }

  /// Invoked whenever a datagram is queued (level-triggered "data available").
  void set_on_readable(ReadableFn fn) { on_readable_ = std::move(fn); }

  void close();

  /// cb().bound stays set across a detach: it is part of the state image.
  void detach() override;
  /// A bound socket goes back into bhash.
  void attach() override;

  /// Stack demux entry.
  void datagram_arrived(const net::Packet& p);

  UdpCb& cb() { return cb_; }
  const UdpCb& cb() const { return cb_; }

  /// Migration support: set identity fields without touching hash tables (the
  /// restorer builds the socket unhashed, then attach()es it).
  void set_endpoints(net::Endpoint local, net::Endpoint remote, bool bound,
                     bool connected);

 private:
  /// The half that close() and detach() share: bhash and the dst cache.
  void unhash();

  UdpCb cb_;
  ReadableFn on_readable_;
};

}  // namespace dvemig::stack
