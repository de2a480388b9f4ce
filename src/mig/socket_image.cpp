#include "src/mig/socket_image.hpp"

#include "src/mig/test_hooks.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig::mig {

namespace {

obs::Counter& rehash_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("tcp.rehash");
  return c;
}

}  // namespace

// ---------------------------------------------------------------- CaptureSpec

bool CaptureSpec::matches(const net::Packet& p) const {
  if (p.proto != proto) return false;
  if (p.dport() != local_port) return false;
  if (match_remote && (p.src != remote.addr || p.sport() != remote.port)) return false;
  return true;
}

// ---------------------------------------------------------------- extraction

TcpImage extract_tcp(const stack::TcpSocket& sock, Fd fd) {
  const stack::TcpCb& cb = sock.cb();
  // Signal-based checkpointing guarantees the process is out of any socket
  // syscall: the backlog and prequeue must be empty (Section V-C1).
  DVEMIG_EXPECTS(!sock.held_by_user());

  TcpImage img;
  static_cast<stack::TcpVars&>(img) = cb;
  img.src_sock_key = sock.sock_id();
  img.fd = fd;
  img.local = sock.local();
  img.remote = sock.remote();
  img.listening = cb.state == stack::TcpState::listen;
  img.backlog_limit = sock.accept_backlog_limit();
  img.write_queue.assign(cb.write_queue.begin(), cb.write_queue.end());
  img.receive_queue.assign(cb.receive_queue.begin(), cb.receive_queue.end());
  img.ooo_queue.reserve(cb.ooo_queue.size());
  for (const auto& [seq, s] : cb.ooo_queue) img.ooo_queue.push_back(s);

  if (img.listening) {
    // Established children awaiting accept() ride along; half-open (SYN_RCVD)
    // embryos are dropped — the client's SYN retransmission is captured on the
    // destination and completes the handshake there.
    for (const auto& child : sock.accept_queue()) {
      img.accept_children.push_back(extract_tcp(*child, -1));
    }
  }
  return img;
}

UdpImage extract_udp(const stack::UdpSocket& sock, Fd fd) {
  const stack::UdpCb& cb = sock.cb();
  UdpImage img;
  img.src_sock_key = sock.sock_id();
  img.fd = fd;
  img.local = sock.local();
  img.remote = sock.remote();
  img.bound = cb.bound;
  img.connected = cb.connected;
  img.receive_queue.assign(cb.receive_queue.begin(), cb.receive_queue.end());
  return img;
}

std::vector<CaptureSpec> capture_specs_for_tcp(const stack::TcpSocket& sock) {
  std::vector<CaptureSpec> specs;
  if (sock.cb().state == stack::TcpState::listen) {
    // A listener (and its children) may hear from anyone on its port; the
    // children additionally get precise 4-tuple specs.
    specs.push_back(CaptureSpec{net::IpProto::tcp, false, {}, sock.local().port});
    for (const auto& child : sock.accept_queue()) {
      specs.push_back(
          CaptureSpec{net::IpProto::tcp, true, child->remote(), child->local().port});
    }
  } else {
    specs.push_back(
        CaptureSpec{net::IpProto::tcp, true, sock.remote(), sock.local().port});
  }
  return specs;
}

CaptureSpec capture_spec_for_udp(const stack::UdpSocket& sock) {
  if (sock.cb().connected) {
    return CaptureSpec{net::IpProto::udp, true, sock.remote(), sock.local().port};
  }
  return CaptureSpec{net::IpProto::udp, false, {}, sock.local().port};
}

// ---------------------------------------------------------------- restoration

namespace {

net::Endpoint rewrite_local(net::Endpoint local, const RestoreContext& ctx) {
  // In-cluster sockets carried the source node's local IP; on the destination the
  // socket speaks with the destination's local IP (the peer's translation filter
  // maps it back, Section III-C).
  if (local.addr == ctx.src_node_local_addr) {
    return net::Endpoint{ctx.dst_node_local_addr, local.port};
  }
  return local;  // shared public IP (or wildcard): unchanged
}

/// Build the socket (a listener with its accept-queue children) unhashed.
stack::TcpSocket::Ptr build_tcp(const TcpImage& img, const RestoreContext& ctx) {
  auto sock = ctx.stack->make_tcp();
  stack::TcpCb& cb = sock->cb();

  const net::Endpoint local = rewrite_local(img.local, ctx);
  sock->set_endpoints(local, img.remote);

  static_cast<stack::TcpVars&>(cb) = img;

  // --- TCP timestamp adjustment (Section V-C1) ---
  // Jiffies differ between hosts. tsval generation must continue monotonically
  // from where the source left off, and buffered local-clock stamps must be moved
  // into the destination's timebase, or RTT estimation and PAWS break.
  const std::int64_t jiffies_delta = ctx.src_jiffies_at_ckpt - ctx.stack->jiffies();
  const std::int64_t clock_delta_ns =
      ctx.stack->local_now_ns() - ctx.src_local_now_at_ckpt_ns;
  if (ctx.adjust_timestamps) {
    cb.ts_offset += jiffies_delta;
    obs::Registry::instance().counter("tcp.ts_fixups").add(1);
  }

  cb.write_queue.assign(img.write_queue.begin(), img.write_queue.end());
  if (ctx.adjust_timestamps) {
    for (auto& seg : cb.write_queue) {
      if (seg.sent_at_local_ns >= 0) seg.sent_at_local_ns += clock_delta_ns;
    }
  }
  cb.receive_queue.assign(img.receive_queue.begin(), img.receive_queue.end());
  for (const auto& s : img.receive_queue) cb.receive_queue_bytes += s.data.size();
  for (const auto& s : img.ooo_queue) cb.ooo_queue.emplace(s.seq, s);

  if (img.listening) {
    cb.state = stack::TcpState::listen;
    sock->set_accept_backlog_limit(img.backlog_limit);
    for (const TcpImage& child_img : img.accept_children) {
      sock->accept_queue().push_back(build_tcp(child_img, ctx));
    }
  }
  return sock;
}

}  // namespace

stack::TcpSocket::Ptr restore_tcp(const TcpImage& img, const RestoreContext& ctx) {
  DVEMIG_EXPECTS(ctx.stack != nullptr);
  auto sock = build_tcp(img, ctx);
  // Rehash (bhash for a listener, then ehash for each child; ehash for a
  // connection) and restart timers.
  sock->attach();
  std::uint64_t rehashed = sock->hashed_bound() || sock->hashed_established();
  for (const auto& child : sock->accept_queue()) rehashed += child->hashed_established();
  rehash_counter().add(rehashed);
  return sock;
}

std::shared_ptr<stack::UdpSocket> restore_udp(const UdpImage& img,
                                              const RestoreContext& ctx) {
  DVEMIG_EXPECTS(ctx.stack != nullptr);
  auto sock = ctx.stack->make_udp();
  const net::Endpoint local = rewrite_local(img.local, ctx);
  sock->set_endpoints(local, img.remote, img.bound, img.connected);
  sock->cb().receive_queue.assign(img.receive_queue.begin(), img.receive_queue.end());
  if (mutation() != ProtocolMutation::skip_restore_rehash) {
    // Rehash the bound server socket on the destination (Section V-C2).
    sock->attach();
    rehash_counter().add(sock->hashed_bound());
  }
  if (mutation() == ProtocolMutation::swap_image_endpoints) {
    // Swapped after hashing: bhash still holds the socket under its real port.
    sock->set_endpoints(img.remote, local, img.bound, img.connected);
  }
  return sock;
}

}  // namespace dvemig::mig
