#include "src/mig/transport.hpp"

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

Buffer SourceTransport::send(MsgType type, Buffer payload,
                             std::span<const std::size_t> starts) {
  static constexpr std::size_t kWhole[] = {0};
  if (starts.empty()) starts = kWhole;
  const std::span<const std::uint8_t> all(payload);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : all.size();
    const auto frame = all.subspan(starts[i], end - starts[i]);
    logical_bytes_ += frame.size() + 5;
    if (stripes_) {
      stripes_->send(type, frame);
    } else if (stripe_socks_.empty()) {
      primary_->send(type, frame);
    } else if (starts.size() == 1) {
      pending_.emplace_back(type, std::move(payload));
      return {};
    } else {
      pending_.emplace_back(type, Buffer(frame.begin(), frame.end()));
    }
  }
  return payload;
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

}  // namespace dvemig::mig
