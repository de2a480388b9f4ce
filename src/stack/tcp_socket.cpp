#include "src/stack/tcp_socket.hpp"

#include <algorithm>

#include "src/common/log.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig::stack {

namespace {
constexpr std::uint32_t kMaxCwnd = 4u << 20;

obs::Counter& retransmit_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("tcp.retransmits");
  return c;
}

/// Segments parked on the backlog or prequeue instead of the fast path — the
/// queues the freeze phase must find empty (held_by_user()).
obs::Counter& queue_move_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("tcp.queue_moves");
  return c;
}

bool connected_state(TcpState s) {
  switch (s) {
    case TcpState::syn_rcvd:
    case TcpState::established:
    case TcpState::fin_wait1:
    case TcpState::fin_wait2:
    case TcpState::close_wait:
    case TcpState::last_ack:
    case TcpState::closing:
    case TcpState::time_wait:
      return true;
    default:
      return false;
  }
}
}  // namespace

const char* tcp_state_name(TcpState s) {
  switch (s) {
    case TcpState::closed: return "CLOSED";
    case TcpState::listen: return "LISTEN";
    case TcpState::syn_sent: return "SYN_SENT";
    case TcpState::syn_rcvd: return "SYN_RCVD";
    case TcpState::established: return "ESTABLISHED";
    case TcpState::fin_wait1: return "FIN_WAIT1";
    case TcpState::fin_wait2: return "FIN_WAIT2";
    case TcpState::close_wait: return "CLOSE_WAIT";
    case TcpState::last_ack: return "LAST_ACK";
    case TcpState::closing: return "CLOSING";
    case TcpState::time_wait: return "TIME_WAIT";
  }
  return "?";
}

std::uint32_t TcpTxSegment::seq_len() const {
  std::uint32_t len = static_cast<std::uint32_t>(data.size());
  if (flags & net::tcp_flags::syn) len += 1;
  if (flags & net::tcp_flags::fin) len += 1;
  return len;
}

TcpSocket::~TcpSocket() { clear_timers(); }

// ---------------------------------------------------------------- application API

void TcpSocket::bind(net::Ipv4Addr addr, net::Port port) {
  DVEMIG_EXPECTS(cb_.state == TcpState::closed);
  DVEMIG_EXPECTS(!hashed_bound_);
  DVEMIG_EXPECTS(addr == net::Ipv4Addr::any() || stack_->has_addr(addr));
  if (port == 0) port = stack_->table().allocate_ephemeral_port(SocketType::tcp);
  DVEMIG_EXPECTS(!stack_->table().port_bound(port, SocketType::tcp));
  local_ = net::Endpoint{addr, port};
}

void TcpSocket::listen(std::uint32_t backlog_limit) {
  DVEMIG_EXPECTS(cb_.state == TcpState::closed);
  DVEMIG_EXPECTS(local_.port != 0);  // must bind() first
  accept_backlog_limit_ = backlog_limit;
  cb_.state = TcpState::listen;
  attach();
}

void TcpSocket::connect(net::Endpoint remote) {
  DVEMIG_EXPECTS(cb_.state == TcpState::closed);
  if (local_.port == 0) {
    local_ = net::Endpoint{stack_->primary_addr(),
                           stack_->table().allocate_ephemeral_port(SocketType::tcp)};
  }
  if (local_.addr == net::Ipv4Addr::any()) local_.addr = stack_->primary_addr();
  remote_ = remote;

  cb_.iss = stack_->next_isn();
  cb_.snd_una = cb_.iss;
  cb_.snd_nxt = cb_.iss;
  cb_.state = TcpState::syn_sent;
  attach();

  queue_segment(net::tcp_flags::syn, {});
  try_send();
}

void TcpSocket::send(Bytes data) {
  DVEMIG_EXPECTS(!migration_disabled());
  DVEMIG_EXPECTS(cb_.state == TcpState::established ||
                 cb_.state == TcpState::close_wait ||
                 cb_.state == TcpState::syn_sent || cb_.state == TcpState::syn_rcvd);
  DVEMIG_EXPECTS(!cb_.fin_queued);
  if (data.size() <= kTcpMss) {
    if (!data.empty()) queue_segment(net::tcp_flags::psh, std::move(data));
    return try_send();
  }
  BinaryReader cut(data);
  while (!cut.at_end()) {
    const std::size_t n = std::min(kTcpMss, cut.remaining());
    const bool last = n == cut.remaining();
    queue_segment(last ? net::tcp_flags::psh : 0, cut.bytes(n));
  }
  try_send();
}

Bytes TcpSocket::read_bytes(std::size_t max) {
  const bool was_pinched = advertised_window() < kTcpMss;
  Bytes out;
  while (!cb_.receive_queue.empty() && out.size() < max) {
    TcpRxSegment& seg = cb_.receive_queue.front();
    const std::size_t take = std::min(seg.data.size(), max - out.size());
    cb_.receive_queue_bytes -= take;
    if (take == seg.data.size()) {
      out.append(std::move(seg.data));
      cb_.receive_queue.pop_front();
    } else {
      out.append(seg.data.slice(0, take));
      seg.data.remove_prefix(take);
      seg.seq += static_cast<std::uint32_t>(take);
    }
  }
  // Window update: if the receive buffer was pinching the advertised window and the
  // read opened it up again, tell the peer so it can resume (poor man's window probe).
  if (was_pinched && advertised_window() >= kTcpMss && connected_state(cb_.state) &&
      !migration_disabled()) {
    send_ack();
  }
  return out;
}

TcpSocket::Ptr TcpSocket::accept() {
  if (accept_queue_.empty()) return nullptr;
  Ptr child = std::move(accept_queue_.front());
  accept_queue_.pop_front();
  return child;
}

void TcpSocket::close() {
  switch (cb_.state) {
    case TcpState::closed:
      return;
    case TcpState::listen: {
      // Abort connections nobody will ever accept.
      while (!accept_queue_.empty()) {
        accept_queue_.front()->abort();
        accept_queue_.pop_front();
      }
      become_closed();
      return;
    }
    case TcpState::syn_sent:
      become_closed();
      return;
    case TcpState::established:
    case TcpState::syn_rcvd:
    case TcpState::close_wait: {
      if (cb_.fin_queued) return;
      queue_segment(net::tcp_flags::fin, {});
      cb_.fin_queued = true;
      cb_.fin_seq = cb_.write_queue.back().end_seq();
      cb_.state = cb_.state == TcpState::close_wait ? TcpState::last_ack
                                                    : TcpState::fin_wait1;
      try_send();
      return;
    }
    default:
      return;  // close already in progress
  }
}

void TcpSocket::abort() {
  if (connected_state(cb_.state) && cb_.state != TcpState::time_wait &&
      !migration_disabled()) {
    send_control(net::tcp_flags::rst | net::tcp_flags::ack, cb_.snd_nxt, cb_.rcv_nxt);
  }
  become_closed();
}

// ---------------------------------------------------------------- lock modelling

void TcpSocket::lock_user() {
  DVEMIG_EXPECTS(!cb_.user_locked);
  cb_.user_locked = true;
}

void TcpSocket::unlock_user() {
  DVEMIG_EXPECTS(cb_.user_locked);
  cb_.user_locked = false;
  process_backlog();
}

void TcpSocket::set_blocked_reader(bool blocked) {
  cb_.blocked_reader = blocked;
  if (!blocked) process_prequeue();
}

void TcpSocket::process_backlog() {
  while (!cb_.backlog.empty() && !cb_.user_locked) {
    net::Packet p = std::move(cb_.backlog.front());
    cb_.backlog.erase(cb_.backlog.begin());
    process_segment(p);
  }
}

void TcpSocket::process_prequeue() {
  while (!cb_.prequeue.empty() && !cb_.user_locked) {
    net::Packet p = std::move(cb_.prequeue.front());
    cb_.prequeue.erase(cb_.prequeue.begin());
    process_segment(p);
  }
}

// ---------------------------------------------------------------- receive path

void TcpSocket::segment_arrived(net::Packet p) {
  DVEMIG_ASSERT(!migration_disabled());
  cb_.segs_in += 1;
  if (cb_.user_locked) {
    // The user holds the socket lock ("in a system call"): defer to the backlog,
    // processed at release time — exactly the queue the freeze phase must not see.
    cb_.backlog.push_back(std::move(p));
    queue_move_counter().add(1);
    return;
  }
  if (cb_.blocked_reader && cb_.state == TcpState::established) {
    // Fast-path receive: queue on the prequeue, processed in the blocked reader's
    // context (one simulation event later).
    cb_.prequeue.push_back(std::move(p));
    queue_move_counter().add(1);
    if (!prequeue_timer_.pending()) {
      // Processed in the blocked reader's context after its wakeup latency.
      prequeue_timer_ = stack_->engine().schedule_after(
          SimTime::nanoseconds(kPrequeueDrainNs), [self = shared_from_this(), this] {
            (void)self;
            process_prequeue();
          });
    }
    return;
  }
  process_segment(p);
}

void TcpSocket::process_segment(net::Packet& p) {
  switch (cb_.state) {
    case TcpState::closed:
      return;  // unhashed/closed socket: nothing to do (stack drops silently)
    case TcpState::listen:
      on_listen_segment(p);
      return;
    case TcpState::syn_sent:
      on_syn_sent_segment(p);
      return;
    default:
      established_input(p);
      return;
  }
}

void TcpSocket::on_listen_segment(net::Packet& p) {
  if (!p.tcp.has(net::tcp_flags::syn) || p.tcp.has(net::tcp_flags::ack) ||
      p.tcp.has(net::tcp_flags::rst)) {
    return;
  }
  const FourTuple tuple{net::Endpoint{p.dst, p.tcp.dport},
                        net::Endpoint{p.src, p.tcp.sport}};
  if (stack_->table().ehash_lookup(tuple)) return;  // duplicate SYN; child handles it
  if (accept_queue_.size() + embryo_count_ >= accept_backlog_limit_) {
    return;  // backlog full (embryos included): drop the SYN
  }

  auto child = stack_->make_tcp();
  child->local_ = tuple.local;
  child->remote_ = tuple.remote;
  child->parent_listener_ = std::static_pointer_cast<TcpSocket>(shared_from_this());
  TcpCb& ccb = child->cb_;
  ccb.irs = p.tcp.seq;
  ccb.rcv_nxt = p.tcp.seq + 1;
  ccb.ts_recent = p.tcp.tsval;
  ccb.snd_wnd = p.tcp.window;
  ccb.iss = stack_->next_isn();
  ccb.snd_una = ccb.iss;
  ccb.snd_nxt = ccb.iss;
  ccb.state = TcpState::syn_rcvd;

  child->attach();
  embryo_count_ += 1;
  child->queue_segment(net::tcp_flags::syn, {});
  child->try_send();
}

void TcpSocket::on_syn_sent_segment(net::Packet& p) {
  if (p.tcp.has(net::tcp_flags::rst)) {
    if (p.tcp.has(net::tcp_flags::ack) && p.tcp.ack == cb_.iss + 1) handle_rst();
    return;
  }
  if (!p.tcp.has(net::tcp_flags::syn) || !p.tcp.has(net::tcp_flags::ack)) return;
  if (p.tcp.ack != cb_.iss + 1) {
    send_control(net::tcp_flags::rst, p.tcp.ack, 0);
    return;
  }
  // SYN-ACK accepted.
  cb_.irs = p.tcp.seq;
  cb_.rcv_nxt = p.tcp.seq + 1;
  cb_.ts_recent = p.tcp.tsval;
  cb_.snd_wnd = p.tcp.window;
  cb_.snd_una = p.tcp.ack;
  DVEMIG_ASSERT(!cb_.write_queue.empty());
  if (cb_.write_queue.front().retrans == 0) {
    rtt_sample(stack_->local_now_ns() - cb_.write_queue.front().sent_at_local_ns);
  }
  cb_.write_queue.pop_front();
  if (next_unsent_idx_ > 0) --next_unsent_idx_;
  rto_timer_.cancel();
  cb_.state = TcpState::established;
  send_ack();
  if (on_connected_) on_connected_();
  try_send();
}

bool TcpSocket::paws_reject(const net::Packet& p) const {
  // PAWS (RFC 7323 §5.2): discard a non-RST segment whose timestamp is strictly
  // older than the last one seen in window. This is the check that kills a
  // migrated connection when the destination host's jiffies lag the source and
  // the socket's timestamps were not adjusted.
  if (p.tcp.has(net::tcp_flags::rst)) return false;
  if (cb_.ts_recent == 0) return false;
  return seq_lt(p.tcp.tsval, cb_.ts_recent);
}

void TcpSocket::established_input(net::Packet& p) {
  if (paws_reject(p)) {
    cb_.paws_drops += 1;
    send_ack();  // challenge ACK, as Linux does
    return;
  }
  if (p.tcp.has(net::tcp_flags::rst)) {
    // In-window check (simplified): accept RST whose seq is not behind rcv_nxt by
    // more than a window.
    if (seq_ge(p.tcp.seq, cb_.rcv_nxt - cb_.rcv_wnd_max)) handle_rst();
    return;
  }
  if (p.tcp.has(net::tcp_flags::syn)) {
    if (cb_.state == TcpState::syn_rcvd && p.tcp.seq == cb_.irs) {
      // Peer retransmitted its SYN: our SYN-ACK was lost; resend it.
      if (!cb_.write_queue.empty()) transmit_segment(cb_.write_queue.front());
    }
    return;
  }

  // Update ts_recent for acceptable, in-order-or-older segments.
  if (seq_le(p.tcp.seq, cb_.rcv_nxt) && seq_ge(p.tcp.tsval, cb_.ts_recent)) {
    cb_.ts_recent = p.tcp.tsval;
  }

  if (p.tcp.has(net::tcp_flags::ack)) handle_ack(p);
  if (cb_.state == TcpState::closed) return;  // RST-free teardown completed in ack
  handle_payload(p);
}

void TcpSocket::handle_ack(const net::Packet& p) {
  const std::uint32_t ack = p.tcp.ack;
  if (seq_gt(ack, cb_.snd_nxt)) {
    send_ack();  // acks data we never sent
    return;
  }

  if (cb_.state == TcpState::syn_rcvd && seq_ge(ack, cb_.iss + 1)) {
    cb_.state = TcpState::established;
    notify_listener_established();
  }

  const std::uint32_t old_wnd = cb_.snd_wnd;
  cb_.snd_wnd = p.tcp.window;

  if (seq_gt(ack, cb_.snd_una)) {
    const std::uint32_t acked = ack - cb_.snd_una;
    cb_.snd_una = ack;
    cb_.dup_acks = 0;

    while (!cb_.write_queue.empty() &&
           seq_le(cb_.write_queue.front().end_seq(), ack)) {
      const TcpTxSegment& seg = cb_.write_queue.front();
      if (seg.retrans == 0 && seg.sent_at_local_ns >= 0) {
        rtt_sample(stack_->local_now_ns() - seg.sent_at_local_ns);
      }
      cb_.write_queue.pop_front();
      if (next_unsent_idx_ > 0) --next_unsent_idx_;
    }

    // Congestion window growth: slow start below ssthresh, else Reno-style.
    if (cb_.cwnd < cb_.ssthresh) {
      cb_.cwnd = std::min<std::uint32_t>(cb_.cwnd + acked, kMaxCwnd);
    } else {
      cb_.cwnd = std::min<std::uint32_t>(
          cb_.cwnd + std::max<std::uint32_t>(
                         1, static_cast<std::uint32_t>(
                                std::uint64_t{kTcpMss} * kTcpMss / cb_.cwnd)),
          kMaxCwnd);
    }

    if (cb_.snd_una == cb_.snd_nxt) {
      rto_timer_.cancel();
      if (cb_.write_queue.empty() && on_drained_) {
        // Invoke a copy: the handler may replace or clear on_drained_.
        auto cb = on_drained_;
        cb();
      }
    } else {
      arm_rto();  // restart on forward progress
    }

    // Our FIN acknowledged?
    if (cb_.fin_queued && seq_ge(cb_.snd_una, cb_.fin_seq)) {
      switch (cb_.state) {
        case TcpState::fin_wait1: cb_.state = TcpState::fin_wait2; break;
        case TcpState::closing: enter_time_wait(); break;
        case TcpState::last_ack: become_closed(); break;
        default: break;
      }
    }
    if (cb_.state != TcpState::closed) try_send();
  } else if (ack == cb_.snd_una) {
    const bool bare = p.payload.empty() && !p.tcp.has(net::tcp_flags::fin);
    if (bare && cb_.inflight() > 0 && p.tcp.window == old_wnd) {
      cb_.dup_acks += 1;
      if (cb_.dup_acks == 3 && !cb_.write_queue.empty()) {
        // Fast retransmit.
        cb_.ssthresh = std::max<std::uint32_t>(cb_.inflight() / 2, 2 * kTcpMss);
        cb_.cwnd = cb_.ssthresh + 3 * kTcpMss;
        cb_.retransmissions += 1;
        retransmit_counter().add(1);
        cb_.write_queue.front().retrans += 1;
        transmit_segment(cb_.write_queue.front());
      }
    } else if (!bare || p.tcp.window != old_wnd) {
      try_send();  // window update may unblock transmission
    }
  }
}

void TcpSocket::handle_payload(net::Packet& p) {
  const bool fin = p.tcp.has(net::tcp_flags::fin);
  const std::uint32_t seq = p.tcp.seq;
  const std::uint32_t len = static_cast<std::uint32_t>(p.payload.size());
  if (len == 0 && !fin) return;  // pure ACK
  const std::uint32_t end = seq + len + (fin ? 1 : 0);

  if (seq_le(end, cb_.rcv_nxt)) {
    send_ack();  // entirely old: dup segment, re-ack
    return;
  }

  if (seq_gt(seq, cb_.rcv_nxt)) {
    // Out of order: buffer if in window, then duplicate-ACK to hint the gap.
    if (seq - cb_.rcv_nxt < cb_.rcv_wnd_max && !cb_.ooo_queue.contains(seq)) {
      cb_.ooo_queue.emplace(seq, TcpRxSegment{seq, p.payload, fin});
    }
    send_ack();
    return;
  }

  // In order (possibly with an already-received head to trim).
  bool delivered = false;
  bool fin_now = false;
  auto deliver = [&](std::uint32_t sseq, Bytes data, bool sfin) {
    const std::uint32_t head = cb_.rcv_nxt - sseq;
    if (head < data.size()) {
      data.remove_prefix(head);
      cb_.rcv_nxt += static_cast<std::uint32_t>(data.size());
      cb_.receive_queue_bytes += data.size();
      cb_.bytes_in += data.size();
      cb_.receive_queue.push_back(TcpRxSegment{sseq + head, std::move(data), false});
      delivered = true;
    }
    if (sfin) {
      cb_.rcv_nxt += 1;
      fin_now = true;
    }
  };
  deliver(seq, std::move(p.payload), fin);

  // Drain the out-of-order queue while it is contiguous.
  while (!cb_.ooo_queue.empty()) {
    auto it = cb_.ooo_queue.begin();
    const std::uint32_t sseq = it->first;
    const std::uint32_t send_ = sseq + static_cast<std::uint32_t>(it->second.data.size()) +
                                (it->second.fin ? 1 : 0);
    if (seq_gt(sseq, cb_.rcv_nxt)) break;        // gap remains
    if (seq_le(send_, cb_.rcv_nxt)) {            // fully duplicate
      cb_.ooo_queue.erase(it);
      continue;
    }
    TcpRxSegment seg = std::move(it->second);
    cb_.ooo_queue.erase(it);
    deliver(seg.seq, std::move(seg.data), seg.fin);
  }

  send_ack();
  if (delivered && on_readable_) on_readable_();
  if (fin_now) handle_fin(p);
}

void TcpSocket::handle_fin(const net::Packet&) {
  cb_.peer_fin_seen = true;
  switch (cb_.state) {
    case TcpState::established:
      cb_.state = TcpState::close_wait;
      if (on_peer_closed_) on_peer_closed_();
      break;
    case TcpState::fin_wait1:
      // Our FIN not yet acked (otherwise we'd be in fin_wait2): simultaneous close.
      cb_.state = TcpState::closing;
      break;
    case TcpState::fin_wait2:
      enter_time_wait();
      break;
    default:
      break;
  }
  if (cb_.state != TcpState::closed) send_ack();
}

void TcpSocket::handle_rst() {
  become_closed();
  if (on_reset_) on_reset_();
}

void TcpSocket::enter_time_wait() {
  cb_.state = TcpState::time_wait;
  rto_timer_.cancel();
  time_wait_timer_ = stack_->engine().schedule_after(
      SimTime::nanoseconds(kTimeWaitNs),
      [self = shared_from_this(), this] {
        (void)self;
        become_closed();
      });
}

void TcpSocket::become_closed() {
  if (cb_.state == TcpState::syn_rcvd) {
    if (auto parent = parent_listener_.lock()) {
      DVEMIG_ASSERT(parent->embryo_count_ > 0);
      parent->embryo_count_ -= 1;
      parent_listener_.reset();
    }
  }
  unhash();
  cb_.state = TcpState::closed;
}

void TcpSocket::unhash() {
  clear_timers();
  if (hashed_established_) stack_->table().ehash_remove(FourTuple{local_, remote_});
  if (hashed_bound_) stack_->table().bhash_remove(*this, local_.port);
  hashed_established_ = hashed_bound_ = false;
  dst_cache_ = net::Ipv4Addr::any();
}

void TcpSocket::detach() {
  unhash();
  for (const auto& child : accept_queue_) child->detach();
  migration_disabled_ = true;
}

void TcpSocket::attach() {
  migration_disabled_ = false;
  if (cb_.state == TcpState::listen) {
    if (!hashed_bound_) stack_->table().bhash_insert(shared_from_this(), local_.port);
    hashed_bound_ = true;
    for (const auto& child : accept_queue_) child->attach();
    return;
  }
  // A CLOSED socket stays out: nothing will ever reach it again.
  if (cb_.state == TcpState::closed || hashed_established_) return;
  stack_->table().ehash_insert(std::static_pointer_cast<TcpSocket>(shared_from_this()),
                               FourTuple{local_, remote_});
  hashed_established_ = true;
  // Recompute the unsent boundary from snd_nxt, then restart the retransmission
  // timer (the paper: "the retransmission timer is restarted").
  next_unsent_idx_ = 0;
  while (next_unsent_idx_ < cb_.write_queue.size() &&
         seq_lt(cb_.write_queue[next_unsent_idx_].seq, cb_.snd_nxt)) {
    ++next_unsent_idx_;
  }
  if (cb_.inflight() > 0) arm_rto();
  if (cb_.state == TcpState::time_wait) enter_time_wait();
}

void TcpSocket::notify_listener_established() {
  if (auto parent = parent_listener_.lock()) {
    DVEMIG_ASSERT(parent->embryo_count_ > 0);
    parent->embryo_count_ -= 1;
    parent->accept_queue_.push_back(
        std::static_pointer_cast<TcpSocket>(shared_from_this()));
    if (parent->on_accept_ready_) parent->on_accept_ready_();
  }
}

// ---------------------------------------------------------------- transmit path

void TcpSocket::queue_segment(std::uint8_t flags, Bytes data) {
  TcpTxSegment seg;
  seg.seq = cb_.write_queue.empty() ? cb_.snd_nxt : cb_.write_queue.back().end_seq();
  seg.flags = flags;
  seg.data = std::move(data);
  cb_.write_queue.push_back(std::move(seg));
}

void TcpSocket::try_send() {
  if (migration_disabled() || cb_.state == TcpState::closed ||
      cb_.state == TcpState::listen || cb_.state == TcpState::time_wait) {
    return;
  }
  const std::uint32_t wnd = std::min(cb_.cwnd, cb_.snd_wnd);
  while (next_unsent_idx_ < cb_.write_queue.size()) {
    TcpTxSegment& seg = cb_.write_queue[next_unsent_idx_];
    const std::uint32_t would_be_inflight = seg.end_seq() - cb_.snd_una;
    if (would_be_inflight > wnd) {
      // Window closed. If nothing is in flight there will be no ACK to reopen
      // transmission — arm the persist timer to probe the peer's window.
      if (cb_.inflight() == 0 && !persist_timer_.pending()) arm_persist();
      break;
    }
    transmit_segment(seg);
    cb_.snd_nxt = seg.end_seq();
    ++next_unsent_idx_;
  }
  if (cb_.inflight() > 0) {
    persist_timer_.cancel();
    if (!rto_timer_.pending()) arm_rto();
  }
}

void TcpSocket::transmit_segment(TcpTxSegment& seg) {
  DVEMIG_ASSERT(!migration_disabled());
  seg.sent_at_local_ns = stack_->local_now_ns();
  seg.sent_tsval = gen_tsval();

  net::TcpHeader hdr;
  hdr.seq = seg.seq;
  hdr.flags = seg.flags;
  // Every segment carries ACK except the very first SYN of an active open.
  const bool initial_syn =
      (seg.flags & net::tcp_flags::syn) != 0 && cb_.state == TcpState::syn_sent;
  if (!initial_syn) {
    hdr.flags |= net::tcp_flags::ack;
    hdr.ack = cb_.rcv_nxt;
  }
  hdr.window = advertised_window();
  hdr.tsval = seg.sent_tsval;
  hdr.tsecr = initial_syn ? 0 : cb_.ts_recent;
  cb_.last_wnd_sent = hdr.window;

  cb_.segs_out += 1;
  cb_.bytes_out += seg.data.size();
  net::Packet p = net::make_tcp(local_, remote_, hdr, seg.data);
  stack_->send_from(*this, std::move(p));
}

void TcpSocket::send_ack() {
  if (migration_disabled() || !connected_state(cb_.state)) return;
  send_control(net::tcp_flags::ack, cb_.snd_nxt, cb_.rcv_nxt);
}

void TcpSocket::send_control(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack) {
  net::TcpHeader hdr;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.flags = flags;
  hdr.window = advertised_window();
  hdr.tsval = gen_tsval();
  hdr.tsecr = cb_.ts_recent;
  cb_.last_wnd_sent = hdr.window;
  cb_.segs_out += 1;
  net::Packet p = net::make_tcp(local_, remote_, hdr, {});
  stack_->send_from(*this, std::move(p));
}

std::uint32_t TcpSocket::advertised_window() const {
  const std::size_t used = cb_.receive_queue_bytes;
  return used >= cb_.rcv_wnd_max
             ? 0
             : static_cast<std::uint32_t>(cb_.rcv_wnd_max - used);
}

std::uint32_t TcpSocket::gen_tsval() const {
  return static_cast<std::uint32_t>(stack_->jiffies() + cb_.ts_offset);
}

// ---------------------------------------------------------------- timers

void TcpSocket::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = stack_->engine().schedule_after(
      SimTime::nanoseconds(cb_.rto_ns),
      [self = shared_from_this(), this] {
        (void)self;
        on_rto();
      });
}

void TcpSocket::on_rto() {
  if (cb_.inflight() == 0 || cb_.write_queue.empty()) return;
  if (migration_disabled()) return;
  // Classic timeout recovery: retransmit the head, back off, collapse cwnd.
  cb_.ssthresh = std::max<std::uint32_t>(cb_.inflight() / 2, 2 * kTcpMss);
  cb_.cwnd = kTcpMss;
  cb_.rto_ns = std::min(cb_.rto_ns * 2, kMaxRtoNs);
  cb_.retransmissions += 1;
  retransmit_counter().add(1);
  cb_.dup_acks = 0;
  cb_.write_queue.front().retrans += 1;
  transmit_segment(cb_.write_queue.front());
  arm_rto();
}

void TcpSocket::arm_persist() {
  persist_timer_ = stack_->engine().schedule_after(
      SimTime::nanoseconds(cb_.rto_ns),
      [self = shared_from_this(), this] {
        (void)self;
        on_persist();
      });
}

void TcpSocket::on_persist() {
  if (migration_disabled() || next_unsent_idx_ >= cb_.write_queue.size()) return;
  if (cb_.inflight() > 0) return;  // regular transmission resumed meanwhile
  // Zero-window probe: force out the next segment; its ACK carries the window.
  TcpTxSegment& seg = cb_.write_queue[next_unsent_idx_];
  transmit_segment(seg);
  cb_.snd_nxt = seg.end_seq();
  ++next_unsent_idx_;
  arm_rto();
}

void TcpSocket::rtt_sample(std::int64_t rtt_ns) {
  if (rtt_ns < 0) return;
  if (cb_.srtt_ns == 0) {
    cb_.srtt_ns = rtt_ns;
    cb_.rttvar_ns = rtt_ns / 2;
  } else {
    const std::int64_t err = std::abs(cb_.srtt_ns - rtt_ns);
    cb_.rttvar_ns = (3 * cb_.rttvar_ns + err) / 4;
    cb_.srtt_ns = (7 * cb_.srtt_ns + rtt_ns) / 8;
  }
  cb_.rto_ns = std::clamp(cb_.srtt_ns + 4 * cb_.rttvar_ns, kMinRtoNs, kMaxRtoNs);
}

void TcpSocket::clear_timers() {
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  prequeue_timer_.cancel();
  persist_timer_.cancel();
}

void TcpSocket::set_endpoints(net::Endpoint local, net::Endpoint remote) {
  local_ = local;
  remote_ = remote;
}

}  // namespace dvemig::stack
