// Wire protocol between the per-node daemons.
//
//  - migd <-> migd:   framed messages over a TCP connection on the cluster network;
//  - migd  -> transd: translation requests over UDP (port kTransdPort);
//  - conductors:      their own UDP protocol, defined in src/lb.
//
// Frames: u32 length (of type+payload) | u8 type | payload.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/serial.hpp"
#include "src/mig/socket_image.hpp"
#include "src/mig/translation.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig::mig {

inline constexpr net::Port kMigdPort = 7000;
inline constexpr net::Port kTransdPort = 7001;

enum class MsgType : std::uint8_t {
  mig_begin = 1,      // src -> dst: pid, name, strategy, src node identity
  memory_delta = 2,   // src -> dst: one precopy round's (or final) memory delta
  capture_request = 3,  // src -> dst: capture specs to install
  capture_enabled = 4,  // dst -> src: all requested filters are armed
  socket_state = 5,   // src -> dst: socket section updates (full or delta)
  socket_ack = 6,     // dst -> src: per-dump ack (iterative strategy waits on it)
  process_image = 7,  // src -> dst: freeze-phase process metadata; triggers restore
  resume_done = 8,    // dst -> src: process resumed; carries timing + counters
  mig_abort = 9,      // either direction

  // Striped (multi-stream) transfer sublayer, parallelism > 1 only. A secondary
  // channel opens with exactly one stripe_hello (mig_id, stripe index); after
  // mig_begin every src->dst frame of that migration travels as stripe_seg
  // chunks spread round-robin across all channels (primary included) and is
  // reassembled in logical-sequence order on the destination. dst->src replies
  // and mig_abort always ride the primary channel unwrapped.
  stripe_hello = 10,  // src -> dst: u64 mig_id | u8 stripe_index (channel opener)
  stripe_seg = 11,    // src -> dst: u64 seq | u8 inner_type | u32 total | u32 offset | chunk
};

const char* msg_type_name(MsgType t);

inline constexpr std::uint8_t kMsgTypeMin = 1;
inline constexpr std::uint8_t kMsgTypeMax = 11;

inline bool msg_type_valid(std::uint8_t v) {
  return v >= kMsgTypeMin && v <= kMsgTypeMax;
}

/// mig_begin payload. Every field is mandatory: the destination rejects a
/// payload that is shorter or longer than these fields.
struct MigBegin {
  Pid pid{};
  std::string name;
  std::uint8_t strategy{0};       // SocketMigStrategy
  net::Ipv4Addr src_local{};      // source node's cluster-local address
  std::uint64_t mig_id{0};
  std::uint8_t stripe_count{1};   // source parallelism

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.pid.value);
    io.str(m.name);
    io.u8(m.strategy);
    io.u32(m.src_local.value);
    io.u64(m.mig_id);
    io.u8(m.stripe_count);
  }
};

/// Upper bound on MigrationConfig::parallelism: a migration's stripe channels
/// are indexed by a u8, and it should not monopolise the node's ephemeral
/// ports.
inline constexpr int kMaxParallelism = 16;

/// stripe_hello payload: the one opening frame of a secondary stripe channel.
struct StripeHello {
  std::uint64_t mig_id{0};
  std::uint8_t index{0};  // 1 .. stripe_count - 1; the primary is stripe 0

  template <class Io, class Self>
  static void fields(Io& io, Self& h) {
    io.u64(h.mig_id);
    io.u8(h.index);
  }
};

/// The 17-byte header of a stripe_seg payload; the chunk's bytes follow it.
struct StripeSegHeader {
  std::uint64_t seq{0};         // the logical frame's sequence number
  std::uint8_t inner_type{0};   // the logical frame's MsgType
  std::uint32_t total{0};       // the logical frame's payload length
  std::uint32_t offset{0};      // where this chunk starts inside it

  template <class Io, class Self>
  static void fields(Io& io, Self& h) {
    io.u64(h.seq);
    io.u8(h.inner_type);
    io.u32(h.total);
    io.u32(h.offset);
  }
};

/// capture_request payload: a u32 count, then 10 bytes per CaptureSpec.
struct CaptureRequest {
  std::vector<CaptureSpec> specs;

  template <class Io, class Self>
  static void fields(Io& io, Self& req) {
    io.seq(req.specs);
  }
};

/// migd -> transd datagram: install `rule`, then ack `req_id`.
struct TransdRequest {
  std::uint64_t req_id{0};
  TranslationRule rule;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.req_id);
    io.rec(m.rule);
  }
};

/// transd -> migd datagram: the request whose rule is installed.
struct TransdAck {
  std::uint64_t req_id{0};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.req_id);
  }
};

/// Largest frame length (type byte + payload) the receive side accepts. Frames
/// carry at most one precopy round's memory delta; anything past this cap is a
/// corrupted or hostile length field, not data.
inline constexpr std::uint32_t kMaxFrameLen = 256u * 1024 * 1024;

/// Sockets deliver a byte stream; FrameChannel reassembles protocol frames and
/// hands them to a callback. Also the send side: frame + stream into the socket.
///
/// Malformed input (zero-length frame, length above kMaxFrameLen, out-of-range
/// MsgType) does not reach the frame callback: the channel poisons itself, stops
/// parsing and reports through the error callback, so migd can answer with
/// mig_abort instead of feeding garbage to the deserializers.
class FrameChannel {
 public:
  using FrameFn = std::function<void(MsgType, BinaryReader&)>;
  using ErrorFn = std::function<void(const char* reason)>;

  /// Process-wide tap on every frame sent or delivered by any channel, plus
  /// channel teardown. This is how dvemig-verify's protocol checker watches the
  /// migd wire protocol without migd knowing about it. One observer at most.
  class Observer {
   public:
    virtual ~Observer() = default;
    /// `outbound` is from this channel's point of view (true = send()).
    virtual void on_channel_frame(const FrameChannel& ch, bool outbound,
                                  MsgType type, std::size_t payload_len) = 0;
    virtual void on_channel_error(const FrameChannel& ch, const char* reason) {
      (void)ch;
      (void)reason;
    }
    virtual void on_channel_closed(const FrameChannel& ch) { (void)ch; }
  };

  static void set_observer(Observer* obs) { observer_ = obs; }
  static Observer* observer() { return observer_; }

  /// Report a *logical* frame to the observer as if it crossed `ch` whole. The
  /// striping sublayer uses this so dvemig-verify sees the same logical
  /// protocol stream on the primary channel at any parallelism degree: the
  /// source reports each logical frame before chunking it into stripe_seg
  /// frames, the destination reports it again when reassembly completes.
  static void notify_frame(const FrameChannel& ch, bool outbound, MsgType type,
                           std::size_t payload_len) {
    if (observer_) observer_->on_channel_frame(ch, outbound, type, payload_len);
  }

  /// Process-wide fault-injection seam used by the model checker (src/mc).
  /// Consulted per frame on the send side, *before* the frame hits the byte
  /// stream — so `drop` means the peer never sees it, `duplicate` means it is
  /// framed twice back-to-back, and `kill` aborts the underlying socket (RST
  /// to the peer) modelling the sending daemon crashing at that point in the
  /// protocol. One hook at most; production code never installs one.
  enum class FaultAction : std::uint8_t { pass, drop, duplicate, kill };
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    virtual FaultAction on_send(const FrameChannel& ch, MsgType type,
                                std::size_t payload_len) = 0;
  };
  static void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  static FaultHook* fault_hook() { return fault_hook_; }

  explicit FrameChannel(stack::TcpSocket::Ptr sock);
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  ~FrameChannel();

  /// May be called from inside the current frame callback to hand the
  /// channel on: the next frame goes to `fn`. The running callback must then
  /// return without touching its own captures.
  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }
  /// Invoked (at most once) when the receive stream is malformed.
  void set_on_error(ErrorFn fn) { on_error_ = std::move(fn); }

  /// The 5-byte frame header goes in front of `payload` as a chunk of its
  /// own; the payload's bytes are not copied.
  void send(MsgType type, Bytes payload);
  void send(MsgType type, BinaryWriter&& payload) { send(type, payload.take_bytes()); }

  stack::TcpSocket& socket() { return *sock_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// True once malformed input poisoned the receive side.
  bool errored() const { return errored_; }

 private:
  void on_readable();
  void fail_rx(const char* reason);

  static inline Observer* observer_ = nullptr;
  static inline FaultHook* fault_hook_ = nullptr;

  stack::TcpSocket::Ptr sock_;
  Bytes rx_;  // received bytes not yet parsed into frames
  FrameFn on_frame_;
  ErrorFn on_error_;
  std::uint64_t bytes_sent_{0};
  bool errored_{false};
};

/// Stripe segment payload size; logical frames are cut at this granularity.
inline constexpr std::uint32_t kStripeChunkBytes = 256 * 1024;
/// Segments in flight per stripe channel before the sender waits for the
/// socket to drain (the pipeline's bounded send queue).
inline constexpr int kStripePipelineDepth = 2;

/// Send half of the striped transfer sublayer (parallelism > 1).
///
/// Chunks each logical frame into stripe_seg frames of at most
/// kStripeChunkBytes spread round-robin across the channels (index 0 = the
/// migration's primary channel), tagged with a per-logical-frame sequence
/// number so the peer's StripeReassembler restores logical order regardless of
/// per-channel timing. Per channel at most kStripePipelineDepth segments sit
/// in the socket's send buffer; the rest wait in a queue and are pumped as the
/// socket drains — the bounded queue between the serialize and send stages of
/// the pipeline.
///
/// Constructing the sender emits one stripe_hello on every secondary channel
/// (their opening frame). Not copyable; destroy before the channels.
class StripeSender {
 public:
  StripeSender(std::vector<FrameChannel*> channels, std::uint64_t mig_id);
  StripeSender(const StripeSender&) = delete;
  StripeSender& operator=(const StripeSender&) = delete;
  ~StripeSender();

  /// Queue one logical frame for striped transfer, cut into segments that
  /// share its bytes. Reported to the protocol observer as an outbound
  /// logical frame on the primary channel.
  void send(MsgType inner, const Bytes& payload);

  /// Invoke `fn` once every queue is empty and every channel socket has fully
  /// drained (all segments ACKed). One waiter at most; replaces any previous.
  void when_drained(std::function<void()> fn);

  /// Clear socket callbacks and the drain waiter (session teardown).
  void detach_callbacks();

  std::uint64_t segments_sent() const { return segments_; }
  std::uint64_t segment_bytes() const { return segment_bytes_; }

 private:
  void pump(std::size_t channel);
  void on_channel_drained(std::size_t channel);
  void check_drained();

  std::vector<FrameChannel*> channels_;
  std::vector<std::deque<Bytes>> queues_;    // stripe_seg payloads, not yet sent
  std::vector<int> in_flight_;               // segments sent since last drain
  std::function<void()> on_all_drained_;
  std::uint64_t next_seq_{0};
  std::uint64_t segments_{0};
  std::uint64_t segment_bytes_{0};
};

/// Receive half of the striped transfer sublayer.
///
/// Collects stripe_seg payloads (from any channel of one migration) and
/// delivers complete logical frames in strictly ascending sequence order.
/// Invariants enforced on every segment — any violation reports through the
/// error callback and poisons the reassembler:
///   - inner type is a valid, non-stripe message type;
///   - total length within kMaxFrameLen; chunk within [offset, total];
///   - chunks of one frame never overlap or repeat, and agree on type/total;
///   - sequence numbers never revisit a delivered frame;
///   - at most kMaxPendingStripeFrames incomplete frames buffered.
/// Non-overlapping chunks inside [0, total] whose sizes sum to total
/// necessarily tile the frame exactly, so completeness == byte count.
class StripeReassembler {
 public:
  using DeliverFn = std::function<void(MsgType, BinaryReader&)>;
  using ErrorFn = std::function<void(const char* reason)>;

  /// Incomplete-frame buffering cap; beyond it the stream is declared hostile.
  static constexpr std::size_t kMaxPendingStripeFrames = 1024;

  StripeReassembler(DeliverFn deliver, ErrorFn on_error);
  ~StripeReassembler();

  /// Consume one stripe_seg payload. The deliver callback may destroy this
  /// reassembler; the call returns safely afterwards.
  void on_segment(BinaryReader& r);

  bool errored() const { return errored_; }
  std::uint64_t segments_received() const { return segments_; }
  std::uint64_t frames_delivered() const { return delivered_; }

 private:
  struct PendingFrame {
    std::uint8_t type{0};
    std::uint32_t total{0};
    std::uint64_t received{0};
    std::map<std::uint32_t, Bytes> chunks;  // by offset; joined on completion
  };

  void fail(const char* reason);

  DeliverFn deliver_;
  ErrorFn on_error_;
  std::map<std::uint64_t, PendingFrame> pending_;
  std::uint64_t next_deliver_{0};
  std::uint64_t segments_{0};
  std::uint64_t delivered_{0};
  bool errored_{false};
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace dvemig::mig
