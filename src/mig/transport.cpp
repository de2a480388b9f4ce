#include "src/mig/transport.hpp"

#include "src/common/log.hpp"

namespace dvemig::mig {

SourceTransport::SourceTransport(stack::TcpSocket::Ptr primary,
                                 FrameChannel::FrameFn on_frame, FailFn fail)
    : primary_(std::make_unique<FrameChannel>(std::move(primary))),
      fail_(std::move(fail)) {
  primary_->set_on_frame(std::move(on_frame));
  // A malformed reply stream means the destination is garbage-in,
  // garbage-out: give up on the migration rather than deserialize noise.
  primary_->set_on_error([this](const char* reason) {
    fail_(std::string("source channel: ") + reason, /*deferred=*/true);
  });
}

SourceTransport::~SourceTransport() { detach_callbacks(); }

void SourceTransport::open_stripes(stack::NetStack& st, int count, std::uint64_t mig_id,
                                   std::uint32_t obs_track) {
  // Opened in the background: frames queue in send() until every stripe is
  // up, so neither the precopy loop nor a stop-and-copy freeze waits on the
  // extra handshakes.
  mig_id_ = mig_id;
  auto& tracer = obs::Tracer::instance();
  span_connect_ = tracer.begin(obs_track, "mig.stripe_connect");
  tracer.attr(span_connect_, "stripes", std::to_string(count));
  const stack::TcpSocket& primary = primary_->socket();
  for (int i = 0; i < count; ++i) {
    auto s = st.make_tcp();
    s->bind(primary.local().addr, 0);
    s->set_on_connected([this] { on_stripe_connected(); });
    s->set_on_reset([this] { fail_("stripe connection reset", /*deferred=*/false); });
    s->connect(primary.remote());
    stripe_socks_.push_back(std::move(s));
  }
}

void SourceTransport::on_stripe_connected() {
  stripes_connected_ += 1;
  if (stripes_connected_ < stripe_socks_.size()) return;
  obs::Tracer::instance().end(std::exchange(span_connect_, 0));
  std::vector<FrameChannel*> chans{primary_.get()};
  for (auto& s : stripe_socks_) {
    auto ch = std::make_unique<FrameChannel>(s);
    // The destination never speaks on a stripe channel; any inbound frame or
    // framing noise there is a broken transport.
    ch->set_on_frame([this](MsgType, BinaryReader&) {
      fail_("unexpected frame on stripe channel", /*deferred=*/false);
    });
    ch->set_on_error([this](const char* reason) {
      fail_(std::string("stripe channel: ") + reason, /*deferred=*/true);
    });
    chans.push_back(ch.get());
    stripe_channels_.push_back(std::move(ch));
  }
  stripes_ = std::make_unique<StripeSender>(std::move(chans), mig_id_);
  for (auto& [type, payload] : pending_) stripes_->send(type, payload);
  pending_.clear();
  if (on_drained_) stripes_->when_drained(std::exchange(on_drained_, nullptr));
}

void SourceTransport::send(MsgType type, Bytes payload, std::span<const std::size_t> starts) {
  const auto send_frame = [this, type](Bytes frame) {
    logical_bytes_ += frame.size() + 5;
    if (stripes_) {
      stripes_->send(type, frame);
    } else if (stripe_socks_.empty()) {
      primary_->send(type, std::move(frame));
    } else {
      pending_.emplace_back(type, std::move(frame));
    }
  };
  if (starts.size() <= 1) {
    DVEMIG_EXPECTS(starts.empty() || starts[0] == 0);
    return send_frame(std::move(payload));
  }
  BinaryReader cut(payload);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : payload.size();
    cut.skip(starts[i] - cut.position());
    send_frame(cut.bytes(end - starts[i]));
  }
}

void SourceTransport::when_drained(std::function<void()> fn) {
  // Striped: "drained" means every queue flushed and every stripe socket
  // fully ACKed. Frames still parked for the stripe connections re-arm the
  // waiter the moment the sender comes up.
  if (stripes_) return stripes_->when_drained(std::move(fn));
  on_drained_ = std::move(fn);
  if (!stripe_socks_.empty()) return;
  stack::TcpSocket& sock = primary_->socket();
  if (sock.drained()) return std::exchange(on_drained_, nullptr)();
  sock.set_on_drained([this] {
    primary_->socket().set_on_drained(nullptr);
    std::exchange(on_drained_, nullptr)();
  });
}

void SourceTransport::close(bool abort) {
  if (span_connect_ != 0) obs::Tracer::instance().end(std::exchange(span_connect_, 0));
  const stack::TcpState st = primary_->socket().state();
  if (abort && (st == stack::TcpState::established || st == stack::TcpState::close_wait)) {
    primary_->send(MsgType::mig_abort, Buffer{});
  }
  pending_.clear();
  for (auto& s : stripe_socks_) s->close();
}

void SourceTransport::detach_callbacks() {
  if (stripes_) stripes_->detach_callbacks();
  on_drained_ = nullptr;
  fail_ = nullptr;
  for (auto& ch : stripe_channels_) {
    ch->set_on_frame(nullptr);
    ch->set_on_error(nullptr);
  }
  for (auto& s : stripe_socks_) {
    s->set_on_connected(nullptr);
    s->set_on_reset(nullptr);
    s->set_on_drained(nullptr);
  }
  primary_->set_on_frame(nullptr);
  primary_->set_on_error(nullptr);
  primary_->socket().set_on_drained(nullptr);
}

// ------------------------------------------------------------ DestTransport

namespace {

void wire(FrameChannel& ch, FrameChannel::FrameFn on_frame, FrameChannel::ErrorFn on_error,
          std::function<void()> on_reset, std::function<void()> on_peer_closed) {
  ch.set_on_frame(std::move(on_frame));
  ch.set_on_error(std::move(on_error));
  ch.socket().set_on_reset(std::move(on_reset));
  ch.socket().set_on_peer_closed(std::move(on_peer_closed));
}

}  // namespace

DestTransport::DestTransport(sim::Engine& engine, std::uint64_t mig_id,
                             std::function<void()> on_empty)
    : engine_(&engine), mig_id_(mig_id), on_empty_(std::move(on_empty)) {}

void DestTransport::end_channel(FrameChannel& ch) {
  ch.socket().close();
  wire(ch, nullptr, nullptr, nullptr, nullptr);
}

const char* DestTransport::refuse_stripe(std::uint8_t index) const {
  if (index == 0 || index >= kMaxParallelism) return "stripe index out of range";
  if (state_ == State::stopped || state_ == State::closed) return "stripe of an ended migration";
  if (state_ == State::receiving && index >= stripe_count_) return "stripe index past stripe count";
  for (const auto& s : stripes_) {
    if (s->index == index) return "duplicate stripe index";
  }
  return nullptr;
}

void DestTransport::attach_stripe(std::unique_ptr<FrameChannel> ch, std::uint8_t index) {
  Stripe& s = *stripes_.emplace_back(std::make_unique<Stripe>(Stripe{index, std::move(ch)}));
  wire(*s.channel, [this, &s](MsgType type, BinaryReader& r) { on_stripe_frame(s, type, r); },
       [this, &s](const char* reason) { end_stripe(s, reason, /*notify_peer=*/true); },
       [this, &s] { end_stripe(s, "stripe connection reset", /*notify_peer=*/false); },
       [this, &s] { end_stripe(s, "stripe channel closed", /*notify_peer=*/false); });
}

void DestTransport::open(std::unique_ptr<FrameChannel> primary, int stripe_count,
                         FrameChannel::FrameFn deliver, FailFn on_fail) {
  DVEMIG_EXPECTS(state_ == State::parking);
  primary_ = std::move(primary);
  wire(*primary_, [this](MsgType type, BinaryReader& r) { on_primary_frame(type, r); },
       [this](const char* reason) { fail(reason, /*notify_peer=*/true); },
       [this] { fail("source connection reset", /*notify_peer=*/false); },
       [this] { fail("source closed before restore", /*notify_peer=*/false); });
  deliver_ = std::move(deliver);
  fail_ = std::move(on_fail);
  state_ = State::receiving;
  stripe_count_ = stripe_count;
  if (stripe_count_ > 1) {
    reasm_ = std::make_unique<StripeReassembler>(
        [this](MsgType type, BinaryReader& r) {
          if (state_ != State::receiving) return;
          // Re-report the reassembled logical frame so the protocol checker
          // sees the same inbound stream as at degree 1.
          FrameChannel::notify_frame(*primary_, /*outbound=*/false, type, r.remaining());
          deliver_(type, r);
        },
        [this](const char* reason) { fail(reason, /*notify_peer=*/true); });
  }
  for (const auto& s : stripes_) {
    if (s->index >= stripe_count_) {
      return fail("stripe index past stripe count", /*notify_peer=*/true);
    }
  }
  for (const Bytes& seg : std::exchange(parked_, {})) {
    if (state_ != State::receiving) break;
    BinaryReader r(seg);
    on_segment(r);
  }
}

void DestTransport::on_primary_frame(MsgType type, BinaryReader& r) {
  if (state_ != State::receiving) return;
  if (type == MsgType::stripe_seg) return on_segment(r);
  if (type == MsgType::stripe_hello) {
    return fail("stripe_hello on the primary channel", /*notify_peer=*/true);
  }
  deliver_(type, r);
}

void DestTransport::on_stripe_frame(Stripe& s, MsgType type, BinaryReader& r) {
  if (s.ended) return;
  if (type != MsgType::stripe_seg) {
    return end_stripe(s, "unexpected frame on stripe channel", /*notify_peer=*/false);
  }
  if (state_ == State::receiving) return on_segment(r);
  if (state_ != State::parking) return;
  // Segments racing ahead of the primary channel's mig_begin wait for it.
  if (parked_.size() >= kMaxParkedSegments) {
    return end_stripe(s, "stripe segment backlog before mig_begin", /*notify_peer=*/false);
  }
  parked_.push_back(r.bytes(r.remaining()));
}

void DestTransport::on_segment(BinaryReader& r) {
  if (!reasm_) return fail("unexpected stripe segment", /*notify_peer=*/true);
  reasm_->on_segment(r);
}

void DestTransport::end_stripe(Stripe& s, const char* why, bool notify_peer) {
  if (std::exchange(s.ended, true)) return;
  DVEMIG_DEBUG("migd", "stripe %u of migration %llx ended: %s",
               static_cast<unsigned>(s.index), static_cast<unsigned long long>(mig_id_), why);
  // The migration cannot complete without this channel's segments; after a
  // commit this is the normal close path.
  fail(why, notify_peer);
  engine_->schedule_after(SimTime::zero(), [self = shared_from_this(), &s] {
    end_channel(*s.channel);
    std::erase_if(self->stripes_, [&s](const auto& p) { return p.get() == &s; });
    if (self->channel_count() == 0) self->on_empty_();
  });
}

void DestTransport::send(MsgType type, Bytes payload) {
  if (primary_) primary_->send(type, std::move(payload));
}

void DestTransport::stop_receiving() {
  if (state_ == State::receiving) state_ = State::stopped;
}

void DestTransport::answer_source_close() {
  if (primary_->socket().state() == stack::TcpState::close_wait) primary_->socket().close();
}

void DestTransport::close() {
  if (state_ == State::closed) return;
  state_ = State::closed;
  deliver_ = nullptr;
  fail_ = nullptr;
  reasm_.reset();
  end_channel(*primary_);
  primary_.reset();
  if (channel_count() == 0) on_empty_();
}

void DestTransport::detach_callbacks() {
  deliver_ = nullptr;
  fail_ = nullptr;
  if (primary_) wire(*primary_, nullptr, nullptr, nullptr, nullptr);
  for (const auto& s : stripes_) wire(*s->channel, nullptr, nullptr, nullptr, nullptr);
}

}  // namespace dvemig::mig
