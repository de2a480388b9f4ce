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
  img.src_sock_key = sock.sock_id();
  img.fd = fd;
  img.local = sock.local();
  img.remote = sock.remote();
  img.listening = cb.state == stack::TcpState::listen;
  img.backlog_limit = sock.accept_backlog_limit();
  img.iss = cb.iss;
  img.irs = cb.irs;
  img.rcv_wnd_max = cb.rcv_wnd_max;

  img.state = static_cast<std::uint8_t>(cb.state);
  img.snd_una = cb.snd_una;
  img.snd_nxt = cb.snd_nxt;
  img.snd_wnd = cb.snd_wnd;
  img.rcv_nxt = cb.rcv_nxt;
  img.srtt_ns = cb.srtt_ns;
  img.rttvar_ns = cb.rttvar_ns;
  img.rto_ns = cb.rto_ns;
  img.cwnd = cb.cwnd;
  img.ssthresh = cb.ssthresh;
  img.ts_recent = cb.ts_recent;
  img.ts_offset = cb.ts_offset;
  img.fin_queued = cb.fin_queued;
  img.fin_seq = cb.fin_seq;
  img.peer_fin_seen = cb.peer_fin_seen;

  for (const auto& s : cb.write_queue) {
    img.write_queue.push_back(TcpSegmentImage{s.seq, s.flags, s.retrans,
                                              s.sent_at_local_ns, s.sent_tsval,
                                              s.data});
  }
  for (const auto& s : cb.receive_queue) {
    img.receive_queue.push_back(TcpRxImage{s.seq, s.fin, s.data});
  }
  for (const auto& [seq, s] : cb.ooo_queue) {
    img.ooo_queue.push_back(TcpRxImage{s.seq, s.fin, s.data});
  }

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
  for (const auto& d : cb.receive_queue) img.receive_queue.emplace_back(d.from, d.data);
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

  cb.state = static_cast<stack::TcpState>(img.state);
  cb.iss = img.iss;
  cb.irs = img.irs;
  cb.rcv_wnd_max = img.rcv_wnd_max;
  cb.snd_una = img.snd_una;
  cb.snd_nxt = img.snd_nxt;
  cb.snd_wnd = img.snd_wnd;
  cb.rcv_nxt = img.rcv_nxt;
  cb.srtt_ns = img.srtt_ns;
  cb.rttvar_ns = img.rttvar_ns;
  cb.rto_ns = img.rto_ns;
  cb.cwnd = img.cwnd;
  cb.ssthresh = img.ssthresh;
  cb.ts_recent = img.ts_recent;
  cb.ts_offset = img.ts_offset;
  cb.fin_queued = img.fin_queued;
  cb.fin_seq = img.fin_seq;
  cb.peer_fin_seen = img.peer_fin_seen;

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

  for (const auto& s : img.write_queue) {
    stack::TcpTxSegment seg;
    seg.seq = s.seq;
    seg.flags = s.flags;
    seg.retrans = s.retrans;
    seg.sent_at_local_ns =
        ctx.adjust_timestamps && s.sent_at_local_ns >= 0
            ? s.sent_at_local_ns + clock_delta_ns
            : s.sent_at_local_ns;
    seg.sent_tsval = s.sent_tsval;
    seg.data = s.data;
    cb.write_queue.push_back(std::move(seg));
  }
  for (const auto& s : img.receive_queue) {
    cb.receive_queue.push_back(stack::TcpRxSegment{s.seq, s.data, s.fin});
    cb.receive_queue_bytes += s.data.size();
  }
  for (const auto& s : img.ooo_queue) {
    cb.ooo_queue.emplace(s.seq, stack::TcpRxSegment{s.seq, s.data, s.fin});
  }

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
  stack::UdpCb& cb = sock->cb();
  for (const auto& [from, data] : img.receive_queue) {
    cb.receive_queue.push_back(stack::UdpDatagram{from, data});
  }
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
