// Source-side transport of one migration: how src->dst frames cross the wire.
//
// Every frame goes plain on the primary FrameChannel (the connection that
// carried mig_begin) until open_stripes() dials the P-1 stripe connections of
// a parallel migration. From then on frames queue until all stripes are up,
// after which a StripeSender deals every frame across all P channels.
// Whatever the path, logical_bytes() counts each frame as payload + 5 framing
// bytes — what FrameChannel::bytes_sent() measures on a plain channel — so
// MigrationStats read the same at every degree.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/mig/protocol.hpp"
#include "src/obs/span.hpp"
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
  /// — one frame for the whole buffer when `starts` is empty. Returns the
  /// buffer for reuse once its bytes are copied out; a whole-buffer frame
  /// queued while the stripes connect keeps it, and the return is empty.
  Buffer send(MsgType type, Buffer payload, std::span<const std::size_t> starts = {});

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
  std::vector<std::pair<MsgType, Buffer>> pending_;  // sent before the stripes are up
  std::function<void()> on_drained_;
  std::uint64_t mig_id_{0};
  std::uint64_t logical_bytes_{0};
  obs::SpanId span_connect_{0};
};

}  // namespace dvemig::mig
