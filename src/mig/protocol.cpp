#include "src/mig/protocol.hpp"

#include <algorithm>

namespace dvemig::mig {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::mig_begin: return "mig_begin";
    case MsgType::memory_delta: return "memory_delta";
    case MsgType::capture_request: return "capture_request";
    case MsgType::capture_enabled: return "capture_enabled";
    case MsgType::socket_state: return "socket_state";
    case MsgType::socket_ack: return "socket_ack";
    case MsgType::process_image: return "process_image";
    case MsgType::resume_done: return "resume_done";
    case MsgType::mig_abort: return "mig_abort";
    case MsgType::stripe_hello: return "stripe_hello";
    case MsgType::stripe_seg: return "stripe_seg";
  }
  return "?";
}

FrameChannel::FrameChannel(stack::TcpSocket::Ptr sock) : sock_(std::move(sock)) {
  DVEMIG_EXPECTS(sock_ != nullptr);
  sock_->set_on_readable([this] { on_readable(); });
  // Data may already be waiting (frames that raced connection setup).
  on_readable();
}

FrameChannel::~FrameChannel() {
  // The socket can outlive the channel (the table holds it through FIN/RST
  // teardown), and a frame crossing the wire during shutdown — e.g. both ends
  // sending mig_abort to each other — would otherwise fire this callback on a
  // freed channel.
  sock_->set_on_readable(nullptr);
  if (observer_) observer_->on_channel_closed(*this);
}

void FrameChannel::send(MsgType type, std::span<const std::uint8_t> payload) {
  // A poisoned receive side (fail_rx) must NOT block sending: answering
  // garbage with mig_abort is exactly how the migd fails fast. Only the
  // socket's state gates transmission — a killed channel aborted its socket,
  // and a connection reset under a still-running session (crossing mig_abort,
  // peer daemon crash) would trip the socket's send precondition; the frame
  // is lost either way.
  const stack::TcpState st = sock_->state();
  if (st != stack::TcpState::established && st != stack::TcpState::close_wait &&
      st != stack::TcpState::syn_sent && st != stack::TcpState::syn_rcvd) {
    return;
  }
  FaultAction action = FaultAction::pass;
  if (fault_hook_) action = fault_hook_->on_send(*this, type, payload.size());
  if (action == FaultAction::drop) return;  // the peer never sees this frame
  if (action == FaultAction::kill) {
    // Sending daemon "crashes" mid-protocol: RST the connection and go silent
    // (a dead daemon emits no further frames on this channel). The owning
    // session dies with its daemon — surface the crash as a channel error so
    // it tears down instead of lingering with capture sessions armed.
    errored_ = true;
    sock_->abort();
    if (observer_) observer_->on_channel_error(*this, "daemon killed");
    if (on_error_) on_error_("daemon killed");
    return;
  }
  const int copies = action == FaultAction::duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    if (observer_) observer_->on_channel_frame(*this, /*outbound=*/true, type,
                                               payload.size());
    BinaryWriter frame;
    frame.reserve(payload.size() + 5);  // one allocation per frame
    frame.u32(static_cast<std::uint32_t>(payload.size() + 1));
    frame.u8(static_cast<std::uint8_t>(type));
    frame.bytes(payload);
    bytes_sent_ += frame.size();
    sock_->send(frame.take());
  }
}

void FrameChannel::fail_rx(const char* reason) {
  errored_ = true;
  rx_buffer_.clear();
  // Stop listening: anything after a framing error is unparseable noise.
  sock_->set_on_readable(nullptr);
  if (observer_) observer_->on_channel_error(*this, reason);
  if (on_error_) on_error_(reason);
}

void FrameChannel::on_readable() {
  if (errored_) return;
  Buffer chunk = sock_->read();
  rx_buffer_.insert(rx_buffer_.end(), chunk.begin(), chunk.end());

  std::size_t off = 0;
  while (rx_buffer_.size() - off >= 4) {
    BinaryReader len_reader({rx_buffer_.data() + off, 4});
    const std::uint32_t len = len_reader.u32();
    if (len == 0) return fail_rx("zero-length frame");
    if (len > kMaxFrameLen) return fail_rx("frame length exceeds cap");
    if (rx_buffer_.size() - off - 4 < len) break;  // incomplete frame
    BinaryReader body({rx_buffer_.data() + off + 4, len});
    const std::uint8_t raw_type = body.u8();
    if (!msg_type_valid(raw_type)) return fail_rx("unknown frame type");
    const auto type = static_cast<MsgType>(raw_type);
    off += 4 + len;
    if (observer_) {
      observer_->on_channel_frame(*this, /*outbound=*/false, type, len - 1);
    }
    if (on_frame_) on_frame_(type, body);
    if (errored_) return;  // the frame callback tore the channel down
  }
  if (off > 0) {
    rx_buffer_.erase(rx_buffer_.begin(), rx_buffer_.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

// ---------------------------------------------------------------------------
// Striped transfer sublayer
// ---------------------------------------------------------------------------

StripeSender::StripeSender(std::vector<FrameChannel*> channels, std::uint64_t mig_id)
    : channels_(std::move(channels)),
      queues_(channels_.size()),
      in_flight_(channels_.size(), 0) {
  DVEMIG_EXPECTS(channels_.size() >= 2);
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->socket().set_on_drained([this, i] { on_channel_drained(i); });
    if (i == 0) continue;  // the primary channel already spoke mig_begin
    BinaryWriter hello;
    hello.u64(mig_id);
    hello.u8(static_cast<std::uint8_t>(i));
    channels_[i]->send(MsgType::stripe_hello, hello.buffer());
  }
}

StripeSender::~StripeSender() { detach_callbacks(); }

void StripeSender::detach_callbacks() {
  for (FrameChannel* ch : channels_) ch->socket().set_on_drained(nullptr);
  on_all_drained_ = nullptr;
}

void StripeSender::send(MsgType inner, std::span<const std::uint8_t> payload) {
  DVEMIG_EXPECTS(payload.size() < kMaxFrameLen);
  FrameChannel::notify_frame(*channels_[0], /*outbound=*/true, inner, payload.size());
  const std::uint64_t seq = next_seq_++;
  const auto total = static_cast<std::uint32_t>(payload.size());
  std::uint32_t off = 0;
  std::size_t ch = 0;
  // An empty payload still travels as one (empty) segment so the sequence
  // number is consumed and the peer delivers the frame.
  do {
    const std::uint32_t chunk = std::min(kStripeChunkBytes, total - off);
    BinaryWriter seg;
    seg.u64(seq);
    seg.u8(static_cast<std::uint8_t>(inner));
    seg.u32(total);
    seg.u32(off);
    seg.bytes(std::span<const std::uint8_t>(payload.data() + off, chunk));
    queues_[ch].push_back(seg.take());
    ch = (ch + 1) % channels_.size();
    off += chunk;
  } while (off < total);
  for (std::size_t i = 0; i < channels_.size(); ++i) pump(i);
  check_drained();
}

void StripeSender::pump(std::size_t channel) {
  auto& q = queues_[channel];
  while (in_flight_[channel] < kStripePipelineDepth && !q.empty()) {
    Buffer seg = std::move(q.front());
    q.pop_front();
    in_flight_[channel] += 1;
    segments_ += 1;
    segment_bytes_ += seg.size();
    channels_[channel]->send(MsgType::stripe_seg, seg);
  }
}

void StripeSender::on_channel_drained(std::size_t channel) {
  in_flight_[channel] = 0;
  pump(channel);
  check_drained();
}

void StripeSender::check_drained() {
  if (!on_all_drained_) return;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!queues_[i].empty() || !channels_[i]->socket().drained()) return;
  }
  auto fn = std::move(on_all_drained_);
  on_all_drained_ = nullptr;
  fn();
}

void StripeSender::when_drained(std::function<void()> fn) {
  on_all_drained_ = std::move(fn);
  check_drained();
}

StripeReassembler::StripeReassembler(DeliverFn deliver, ErrorFn on_error)
    : deliver_(std::move(deliver)), on_error_(std::move(on_error)) {}

StripeReassembler::~StripeReassembler() { *alive_ = false; }

void StripeReassembler::fail(const char* reason) {
  errored_ = true;
  pending_.clear();
  if (on_error_) on_error_(reason);
}

void StripeReassembler::on_segment(BinaryReader& r) {
  if (errored_) return;
  segments_ += 1;
  if (r.remaining() < 17) return fail("truncated stripe segment header");
  const std::uint64_t seq = r.u64();
  const std::uint8_t inner = r.u8();
  const std::uint32_t total = r.u32();
  const std::uint32_t offset = r.u32();
  const auto chunk_len = static_cast<std::uint32_t>(r.remaining());

  if (!msg_type_valid(inner)) return fail("stripe segment carries unknown type");
  const auto inner_type = static_cast<MsgType>(inner);
  if (inner_type == MsgType::stripe_hello || inner_type == MsgType::stripe_seg) {
    return fail("nested stripe framing");
  }
  if (seq < next_deliver_) return fail("stripe segment revisits delivered frame");
  if (total > kMaxFrameLen) return fail("stripe frame length exceeds cap");
  if (offset > total || chunk_len > total - offset) {
    return fail("stripe segment overflows frame");
  }

  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    if (pending_.size() >= kMaxPendingStripeFrames) {
      return fail("stripe reassembly backlog");
    }
    // `total` was bounds-checked against kMaxFrameLen above.
    PendingFrame fresh;
    fresh.type = inner;
    fresh.total = total;
    fresh.data = Buffer(total);
    it = pending_.emplace(seq, std::move(fresh)).first;
  }
  PendingFrame& p = it->second;
  if (p.type != inner || p.total != total) {
    return fail("stripe segments disagree on frame header");
  }
  auto [slot, inserted] = p.chunks.emplace(offset, chunk_len);
  if (!inserted) return fail("duplicate stripe segment");
  if (auto next = std::next(slot);
      next != p.chunks.end() && offset + chunk_len > next->first) {
    return fail("overlapping stripe segments");
  }
  if (slot != p.chunks.begin()) {
    auto prev = std::prev(slot);
    if (prev->first + prev->second > offset) return fail("overlapping stripe segments");
  }
  const auto chunk = r.span(chunk_len);
  std::copy(chunk.begin(), chunk.end(),
            p.data.begin() + static_cast<std::ptrdiff_t>(offset));
  p.received += chunk_len;

  // Deliver every complete frame at the head of the sequence. The deliver
  // callback may tear the owning session (and this object) down mid-loop; the
  // shared alive flag makes that safe.
  auto alive = alive_;
  while (true) {
    auto head = pending_.find(next_deliver_);
    if (head == pending_.end() || head->second.received != head->second.total) break;
    PendingFrame done = std::move(head->second);
    pending_.erase(head);
    next_deliver_ += 1;
    delivered_ += 1;
    BinaryReader body({done.data.data(), done.data.size()});
    deliver_(static_cast<MsgType>(done.type), body);
    if (!*alive || errored_) return;
  }
}

}  // namespace dvemig::mig
