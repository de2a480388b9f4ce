// The two ends of one migration's transport: how src->dst frames cross the
// wire.
//
// SourceTransport: every frame goes plain on the primary FrameChannel (the
// connection that carried mig_begin) until open_stripes() dials the P-1 stripe
// connections of a parallel migration. From then on frames queue until all
// stripes are up, after which a StripeSender deals every frame across all P
// channels. Whatever the path, logical_bytes() counts each frame as payload +
// 5 framing bytes — what FrameChannel::bytes_sent() measures on a plain
// channel — so MigrationStats read the same at every degree.
//
// DestTransport: the same migration's channels on the destination, keyed by
// mig_id. It owns the primary channel, the stripe channels, the segments that
// raced ahead of mig_begin and the StripeReassembler, and hands its session
// logical frames only.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/mig/protocol.hpp"
#include "src/obs/span.hpp"
#include "src/sim/engine.hpp"
#include "src/stack/net_stack.hpp"

namespace dvemig::mig {

class SourceTransport {
 public:
  /// The transport broke. `deferred` is set for malformed-stream reports,
  /// which arrive inside a channel's receive path and must be acted on from a
  /// fresh event; `why` then names the channel and the reason.
  using FailFn = std::function<void(const std::string& why, bool deferred)>;

  /// Wraps the connected primary socket. `on_frame` receives the
  /// destination's replies, which always ride the primary channel.
  SourceTransport(stack::TcpSocket::Ptr primary, FrameChannel::FrameFn on_frame,
                  FailFn fail);
  SourceTransport(const SourceTransport&) = delete;
  SourceTransport& operator=(const SourceTransport&) = delete;
  ~SourceTransport();

  /// Dial `count` stripe connections to the primary's peer, under a
  /// mig.stripe_connect span on `obs_track`. Call once, after mig_begin.
  void open_stripes(stack::NetStack& st, int count, std::uint64_t mig_id,
                    std::uint32_t obs_track);

  /// Send `payload` as one logical frame per slice [starts[i], starts[i+1])
  /// — one frame for the whole payload when `starts` is empty. The frames
  /// share the payload's bytes.
  void send(MsgType type, Bytes payload, std::span<const std::size_t> starts = {});

  /// Invoke `fn` once every frame sent so far has left the send queues and
  /// been ACKed. One waiter at most; replaces any previous.
  void when_drained(std::function<void()> fn);

  std::uint64_t logical_bytes() const { return logical_bytes_; }
  std::uint64_t segments_sent() const { return stripes_ ? stripes_->segments_sent() : 0; }
  std::uint64_t segment_bytes() const { return stripes_ ? stripes_->segment_bytes() : 0; }

  /// End the transfer: optionally send mig_abort straight on the primary
  /// channel (never behind queued stripe data), drop queued frames and close
  /// the stripe sockets. The primary socket stays with its owner.
  void close(bool abort);

  /// Clear every callback this transport installed (session teardown).
  void detach_callbacks();

 private:
  void on_stripe_connected();

  std::unique_ptr<FrameChannel> primary_;
  FailFn fail_;
  std::vector<stack::TcpSocket::Ptr> stripe_socks_;
  std::size_t stripes_connected_{0};
  std::vector<std::unique_ptr<FrameChannel>> stripe_channels_;
  // Declared after the channels it references so destruction detaches it first.
  std::unique_ptr<StripeSender> stripes_;
  std::vector<std::pair<MsgType, Bytes>> pending_;  // sent before the stripes are up
  std::function<void()> on_drained_;
  std::uint64_t mig_id_{0};
  std::uint64_t logical_bytes_{0};
  obs::SpanId span_connect_{0};
};

/// Destination end of one migration's channels, the mirror of
/// SourceTransport. Before open() (the primary's mig_begin) it parks the
/// stripe channels' segments, at most kMaxParkedSegments in all. From open()
/// until stop_receiving() it hands the session logical frames: the
/// primary's plain frames and those the StripeReassembler rebuilds from every
/// channel's segments, parked ones first. The end of any channel (reset, FIN,
/// framing error, a broken stripe rule) goes to the one FailFn while a
/// session is attached. The source dialled the stripe channels and closes
/// them once the primary's work is done, so a stripe channel is closed and
/// released, on a fresh event, when it ends; close() ends the primary. The
/// transport reports when its last channel is released.
class DestTransport : public std::enable_shared_from_this<DestTransport> {
 public:
  /// `why` names what broke; `notify_peer` asks for a mig_abort reply.
  using FailFn = std::function<void(const char* why, bool notify_peer)>;

  static constexpr std::size_t kMaxParkedSegments = 4096;

  DestTransport(sim::Engine& engine, std::uint64_t mig_id, std::function<void()> on_empty);
  DestTransport(const DestTransport&) = delete;
  DestTransport& operator=(const DestTransport&) = delete;
  ~DestTransport() { detach_callbacks(); }

  /// Why a stripe_hello with this index cannot join, or nullptr.
  const char* refuse_stripe(std::uint8_t index) const;
  /// Adopt a connection that opened with an accepted stripe_hello.
  void attach_stripe(std::unique_ptr<FrameChannel> ch, std::uint8_t index);
  bool has_primary() const { return state_ != State::parking; }
  /// Adopt the connection that carried mig_begin and start delivering the
  /// session's frames, striped `stripe_count` ways. Call once.
  void open(std::unique_ptr<FrameChannel> primary, int stripe_count,
            FrameChannel::FrameFn deliver, FailFn on_fail);

  /// Reply on the primary channel.
  void send(MsgType type, Bytes payload);
  /// The migration ended on this side: drop every later frame.
  void stop_receiving();
  /// After a commit the source's FIN is the normal end of the primary
  /// connection: if it has arrived, close this end at once.
  void answer_source_close();
  /// End the primary and detach the session. Not from inside a callback.
  void close();
  void detach_callbacks();
  std::size_t channel_count() const { return (primary_ ? 1 : 0) + stripes_.size(); }

  /// Close `ch`'s socket and clear the callbacks a receiver installed on it.
  static void end_channel(FrameChannel& ch);

 private:
  enum class State : std::uint8_t { parking, receiving, stopped, closed };
  struct Stripe {
    std::uint8_t index{0};
    std::unique_ptr<FrameChannel> channel;
    bool ended{false};
  };

  void on_primary_frame(MsgType type, BinaryReader& r);
  void on_stripe_frame(Stripe& s, MsgType type, BinaryReader& r);
  void on_segment(BinaryReader& r);
  void end_stripe(Stripe& s, const char* why, bool notify_peer);
  void fail(const char* why, bool notify_peer) {
    if (fail_) fail_(why, notify_peer);
  }

  sim::Engine* engine_;
  std::uint64_t mig_id_;
  std::function<void()> on_empty_;
  State state_{State::parking};
  int stripe_count_{1};
  std::unique_ptr<FrameChannel> primary_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::vector<Bytes> parked_;
  std::unique_ptr<StripeReassembler> reasm_;
  FrameChannel::FrameFn deliver_;
  FailFn fail_;
};

}  // namespace dvemig::mig
