// TCP socket with the structures socket migration manipulates (Section V-C1):
//
//  - write queue (outgoing, unacked + unsent segments),
//  - receive queue (in-order data the application has not read yet),
//  - out-of-order queue,
//  - backlog queue (segments arriving while the user holds the socket lock),
//  - prequeue (fast-path receive while a reader is blocked),
//  - retransmission timer, RTT estimation, congestion window,
//  - TCP timestamps generated from the host's *local* jiffies clock plus a
//    per-socket offset — the field the migration's timestamp adjustment corrects.
//
// PAWS (RFC 7323) is enforced on receive: a segment whose tsval is older than
// ts_recent is discarded. This is precisely why migrating a socket between hosts
// with different jiffies without adjusting timestamps stalls the connection — the
// ablation benchmark demonstrates it.
//
// The protocol control block is public (`cb()`), mirroring how the kernel's
// `struct tcp_sock` is open to the checkpointing module.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/common/serial.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/socket.hpp"

namespace dvemig::stack {

enum class TcpState : std::uint8_t {
  closed,
  listen,
  syn_sent,
  syn_rcvd,
  established,
  fin_wait1,
  fin_wait2,
  close_wait,
  last_ack,
  closing,
  time_wait,
};

const char* tcp_state_name(TcpState s);

// Sequence-space comparisons (wraparound-safe).
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }
inline bool seq_ge(std::uint32_t a, std::uint32_t b) { return seq_le(b, a); }

inline constexpr std::size_t kTcpMss = 1448;  // 1500 - IP - TCP - timestamps
inline constexpr std::int64_t kMinRtoNs = 200'000'000;   // Linux TCP_RTO_MIN
inline constexpr std::int64_t kMaxRtoNs = 4'000'000'000; // capped for simulation
inline constexpr std::int64_t kTimeWaitNs = 1'000'000'000;
/// Wakeup latency of a blocked reader: packets sit on the prequeue this long
/// before being processed "in the reader's context".
inline constexpr std::int64_t kPrequeueDrainNs = 30'000;

/// One entry of the write queue. SYN/FIN are represented as (possibly empty)
/// segments carrying the corresponding flag; they consume one sequence number.
struct TcpTxSegment {
  std::uint32_t seq{0};
  std::uint8_t flags{0};  // extra flags beyond ACK (syn/fin/psh)
  Bytes data;             // shared with the packets that carry it
  std::uint32_t retrans{0};
  std::int64_t sent_at_local_ns{-1};  // host-local clock stamp (adjusted on migration)
  std::uint32_t sent_tsval{0};

  std::uint32_t seq_len() const;
  std::uint32_t end_seq() const { return seq + seq_len(); }
  bool operator==(const TcpTxSegment&) const = default;
};

/// One entry of the receive or out-of-order queue.
struct TcpRxSegment {
  std::uint32_t seq{0};
  Bytes data;  // shared with the packet that brought it
  bool fin{false};  // segment carried FIN (relevant when buffered out of order)
  bool operator==(const TcpRxSegment&) const = default;
};

/// The connection variables a socket migration carries (Section V-C1): the
/// sequence spaces, RTT and congestion state, timestamps and close progress.
/// The socket image derives from this struct, so extraction and restoration
/// are one slicing assignment each.
struct TcpVars {
  TcpState state{TcpState::closed};

  // Send sequence space.
  std::uint32_t iss{0};
  std::uint32_t snd_una{0};
  std::uint32_t snd_nxt{0};
  std::uint32_t snd_wnd{65535};  // peer-advertised window
  // Receive sequence space.
  std::uint32_t irs{0};
  std::uint32_t rcv_nxt{0};
  std::uint32_t rcv_wnd_max{1u << 20};

  // RTT estimation / retransmission (RFC 6298), nanoseconds.
  std::int64_t srtt_ns{0};
  std::int64_t rttvar_ns{0};
  std::int64_t rto_ns{kMinRtoNs};

  // Congestion control (bytes), NewReno-flavoured.
  std::uint32_t cwnd{10 * kTcpMss};
  std::uint32_t ssthresh{1u << 30};

  // TCP timestamps.
  std::uint32_t ts_recent{0};   // most recent peer tsval (PAWS baseline)
  std::int64_t ts_offset{0};    // added to local jiffies when generating tsval

  bool fin_queued{false};   // app called close(); FIN is (or will be) in write_queue
  std::uint32_t fin_seq{0};  // end-seq of our FIN once queued
  bool peer_fin_seen{false};

  bool operator==(const TcpVars&) const = default;
};

/// The protocol control block: the migrated variables, the queues (which the
/// image copies entry by entry) and host-local bookkeeping that a migration
/// does not carry — duplicate-ACK count, socket-lock flags, counters.
struct TcpCb : TcpVars {
  std::uint32_t dup_acks{0};
  std::uint32_t last_wnd_sent{0};

  // Queues.
  std::deque<TcpTxSegment> write_queue;      // [snd_una, …): unacked then unsent
  std::deque<TcpRxSegment> receive_queue;    // in-order, unread by the app
  std::size_t receive_queue_bytes{0};
  std::map<std::uint32_t, TcpRxSegment> ooo_queue;  // keyed by seq
  std::vector<net::Packet> backlog;          // held while user_locked
  std::vector<net::Packet> prequeue;         // fast-path while a reader is blocked

  // Socket-lock modelling.
  bool user_locked{false};
  bool blocked_reader{false};

  // Counters.
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
  std::uint64_t segs_in{0};
  std::uint64_t segs_out{0};
  std::uint64_t retransmissions{0};
  std::uint64_t paws_drops{0};

  std::uint32_t inflight() const { return snd_nxt - snd_una; }
};

class TcpSocket final : public Socket {
 public:
  using Ptr = std::shared_ptr<TcpSocket>;
  using Callback = std::function<void()>;

  TcpSocket(NetStack& stack, std::uint64_t sock_id)
      : Socket(stack, SocketType::tcp, sock_id) {}
  ~TcpSocket() override;

  // --- application API ---

  void bind(net::Ipv4Addr addr, net::Port port);
  void listen(std::uint32_t backlog_limit = 128);
  void connect(net::Endpoint remote);

  /// Queue data for transmission (the send buffer is unbounded in this
  /// stack). Segments are slices of `data`: its bytes are not copied.
  void send(Bytes data);
  /// Read up to `max` bytes of in-order received data. The segments' bytes
  /// are handed on, not copied.
  Bytes read_bytes(std::size_t max = SIZE_MAX);
  std::size_t bytes_available() const { return cb_.receive_queue_bytes; }

  /// Pop a fully established connection from the accept queue (nullptr if empty).
  Ptr accept();
  std::size_t accept_queue_length() const { return accept_queue_.size(); }
  /// Established children awaiting accept() — migrated along with a listener.
  std::deque<Ptr>& accept_queue() { return accept_queue_; }
  const std::deque<Ptr>& accept_queue() const { return accept_queue_; }

  /// Orderly close (FIN). Safe to call in any state.
  void close();
  /// Abortive close (RST to peer, if connected).
  void abort();

  // --- event callbacks (all optional) ---
  void set_on_connected(Callback fn) { on_connected_ = std::move(fn); }
  void set_on_readable(Callback fn) { on_readable_ = std::move(fn); }
  void set_on_accept_ready(Callback fn) { on_accept_ready_ = std::move(fn); }
  void set_on_peer_closed(Callback fn) { on_peer_closed_ = std::move(fn); }
  void set_on_reset(Callback fn) { on_reset_ = std::move(fn); }
  /// Fires whenever the write queue fully drains (all sent data acknowledged).
  /// Senders pacing on transfer completion — the precopy loop — hook this.
  void set_on_drained(Callback fn) { on_drained_ = std::move(fn); }
  bool drained() const { return cb_.write_queue.empty(); }

  // --- socket-lock modelling (Section V-C1) ---
  /// While "locked by the user" (app inside a syscall on this socket), arriving
  /// segments accumulate on the backlog and are processed at unlock.
  void lock_user();
  void unlock_user();
  /// While a blocked reader waits, segments take the prequeue fast path and are
  /// processed in the (simulated) reader context one event later.
  void set_blocked_reader(bool blocked);
  /// Locked or used for fast-path receiving: precopy skips such a socket, and
  /// the freeze's signal-based checkpoint guarantees false (Section V-C1).
  bool held_by_user() const {
    return cb_.user_locked || cb_.blocked_reader || !cb_.backlog.empty() ||
           !cb_.prequeue.empty();
  }

  // --- stack-facing ---
  void segment_arrived(net::Packet p);

  // --- migration-facing ---
  TcpCb& cb() { return cb_; }
  const TcpCb& cb() const { return cb_; }
  void detach() override;
  /// A listener goes into bhash, then its children; CLOSED hashes nothing; any
  /// other state goes into ehash, then its RTO and time-wait timers restart.
  void attach() override;
  /// Set identity without touching the hash tables (the restorer builds the
  /// socket unhashed, then attach()es it).
  void set_endpoints(net::Endpoint local, net::Endpoint remote);
  /// Drive the transmit path (used after restore to resume sending).
  void try_send();
  bool hashed_established() const { return hashed_established_; }
  bool rto_pending() const { return rto_timer_.pending(); }
  bool time_wait_pending() const { return time_wait_timer_.pending(); }
  bool any_timer_pending() const {
    return rto_timer_.pending() || time_wait_timer_.pending() ||
           prequeue_timer_.pending() || persist_timer_.pending();
  }
  std::uint32_t accept_backlog_limit() const { return accept_backlog_limit_; }
  void set_accept_backlog_limit(std::uint32_t v) { accept_backlog_limit_ = v; }

  TcpState state() const { return cb_.state; }

 private:
  friend class NetStack;

  // Segment processing internals.
  void process_segment(net::Packet& p);
  void on_listen_segment(net::Packet& p);
  void on_syn_sent_segment(net::Packet& p);
  void established_input(net::Packet& p);
  bool paws_reject(const net::Packet& p) const;
  void handle_ack(const net::Packet& p);
  void handle_payload(net::Packet& p);
  void handle_fin(const net::Packet& p);
  void handle_rst();
  void enter_time_wait();
  void become_closed();
  /// The half that close and detach() share: timers, ehash/bhash, dst cache.
  void unhash();

  // Transmit internals.
  void queue_segment(std::uint8_t flags, Bytes data);
  void transmit_segment(TcpTxSegment& seg);
  void send_ack();
  void send_control(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack);
  std::uint32_t advertised_window() const;
  std::uint32_t gen_tsval() const;

  // Timers.
  void arm_rto();
  void on_rto();
  void arm_persist();
  void on_persist();
  void process_backlog();
  void process_prequeue();
  /// Cancel every pending timer (migration "clears the retransmission timer").
  void clear_timers();

  void rtt_sample(std::int64_t rtt_ns);
  void notify_listener_established();

  TcpCb cb_;
  Callback on_connected_;
  Callback on_readable_;
  Callback on_accept_ready_;
  Callback on_peer_closed_;
  Callback on_reset_;
  Callback on_drained_;

  sim::TimerHandle rto_timer_;
  sim::TimerHandle time_wait_timer_;
  sim::TimerHandle prequeue_timer_;
  sim::TimerHandle persist_timer_;

  // Listener-side state.
  std::uint32_t accept_backlog_limit_{0};
  std::uint32_t embryo_count_{0};  // children still in SYN_RCVD
  std::deque<Ptr> accept_queue_;
  std::weak_ptr<TcpSocket> parent_listener_;

  bool hashed_established_{false};
  // Index of the first unsent segment in write_queue (== number of unacked
  // in-flight segments ahead of it). Derivable from snd_nxt; cached for O(1) sends.
  std::size_t next_unsent_idx_{0};
};

}  // namespace dvemig::stack
