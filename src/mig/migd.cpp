#include "src/mig/migd.hpp"

#include <algorithm>
#include <utility>

#include "src/common/log.hpp"
#include "src/mig/session.hpp"
#include "src/mig/transport.hpp"

namespace dvemig::mig {

const char* strategy_name(SocketMigStrategy s) {
  switch (s) {
    case SocketMigStrategy::iterative: return "iterative";
    case SocketMigStrategy::collective: return "collective";
    case SocketMigStrategy::incremental_collective: return "incremental-collective";
  }
  return "?";
}

// ==================================================================== Transd

Transd::Transd(proc::Node& node, TranslationManager& translation, CostModel cm)
    : node_(&node), translation_(&translation), cm_(cm) {}

void Transd::start() {
  sock_ = node_->stack().make_udp();
  sock_->bind(node_->local_addr(), kTransdPort);
  sock_->set_on_readable([this] { on_readable(); });
}

void Transd::on_readable() {
  while (auto dgram = sock_->recv()) {
    // Anything on this port that is not a well-formed request (a stray or
    // truncated datagram, an unknown protocol) is dropped unanswered.
    BinaryReader r(dgram->data);
    TransdRequest req;
    if (!get_payload(r, req)) {
      DVEMIG_WARN("transd", "%s dropped %zu-byte datagram", node_->name().c_str(),
                  dgram->data.size());
      continue;
    }
    if (req.rule.proto != net::IpProto::tcp && req.rule.proto != net::IpProto::udp) {
      DVEMIG_WARN("transd", "%s dropped request %llu for protocol %u",
                  node_->name().c_str(), static_cast<unsigned long long>(req.req_id),
                  static_cast<unsigned>(req.rule.proto));
      continue;
    }
    const net::Endpoint requester = dgram->from;
    // Installing the filter takes kernel work; the ack follows it.
    node_->engine().schedule_after(
        SimTime::nanoseconds(cm_.translation_install_ns),
        [this, req, requester] {
          node_->cpu().account(kKernelPid,
                               SimTime::nanoseconds(cm_.translation_install_ns));
          translation_->install(req.rule, fix_dst_cache_);
          BinaryWriter ack;
          put(ack, TransdAck{req.req_id});
          sock_->send_to(requester, ack.take());
        });
  }
}

// ==================================================================== Migd

Migd::Migd(proc::Node& node, CostModel cm)
    : node_(&node),
      cm_(cm),
      capture_(node.stack()),
      translation_(node.stack()),
      transd_(node, translation_, cm) {}

Migd::~Migd() {
  // The source session, and every destination session through its
  // transport's callbacks, hold themselves alive with shared_from_this()
  // captures; break the cycles so dropping the shared_ptrs below actually
  // reclaims them. Connections still being sorted call back into this daemon.
  detach_source_session();
  for (const auto& [mig_id, transport] : dst_transports_) transport->detach_callbacks();
  for (const Unsorted& u : unsorted_) {
    u.channel->socket().set_on_reset(nullptr);
    u.channel->socket().set_on_peer_closed(nullptr);
  }
}

void Migd::start() {
  transd_.start();
  listener_ = node_->stack().make_tcp();
  listener_->bind(node_->local_addr(), kMigdPort);
  listener_->listen(16);
  listener_->set_on_accept_ready([this] { on_accept_ready(); });
}

void Migd::on_accept_ready() {
  while (auto conn = listener_->accept()) {
    FrameChannel* ch = unsorted_.emplace_back(Unsorted{std::make_unique<FrameChannel>(conn)})
                           .channel.get();
    ch->set_on_frame([this, ch](MsgType t, BinaryReader& r) { sort(*ch, t, r); });
    // Malformed inbound frames: tell the source the migration is dead
    // (mig_abort is still sendable — only the receive side is poisoned).
    ch->set_on_error([this, ch](const char* reason) { reject(*ch, reason, true); });
    conn->set_on_reset([this, ch] { reject(*ch, "source connection reset", false); });
    conn->set_on_peer_closed(
        [this, ch] { reject(*ch, "source closed before restore", false); });
  }
}

void Migd::sort(FrameChannel& ch, MsgType type, BinaryReader& r) {
  if (unsorted(ch).rejected) return;  // frames behind the one rejected
  switch (type) {
    case MsgType::mig_begin: {
      MigBegin begin;
      if (!get_payload(r, begin)) return reject(ch, "malformed mig_begin", true);
      auto& transport = dest_transport(begin.mig_id);
      if (transport->has_primary()) return reject(ch, "mig_id already in use", true);
      return begin_dest_session(begin, transport, take_unsorted(ch));
    }
    case MsgType::stripe_hello: {
      StripeHello hello;
      if (!get_payload(r, hello)) return reject(ch, "malformed stripe_hello", true);
      auto& transport = dest_transport(hello.mig_id);
      if (const char* why = transport->refuse_stripe(hello.index)) {
        if (transport->channel_count() == 0) dst_transports_.erase(hello.mig_id);
        return reject(ch, why, true);
      }
      return transport->attach_stripe(take_unsorted(ch), hello.index);
    }
    case MsgType::mig_abort:
      return reject(ch, "aborted by source", false);
    case MsgType::stripe_seg:
      return reject(ch, "unexpected stripe segment", true);
    default:
      return reject(ch, (std::string(msg_type_name(type)) + " before mig_begin").c_str(), true);
  }
}

std::shared_ptr<DestTransport>& Migd::dest_transport(std::uint64_t mig_id) {
  auto& transport = dst_transports_[mig_id];
  if (!transport) {
    transport = std::make_shared<DestTransport>(node_->engine(), mig_id, [this, mig_id] {
      dst_transports_.erase(mig_id);
    });
  }
  return transport;
}

Migd::Unsorted& Migd::unsorted(const FrameChannel& ch) {
  return *std::find_if(unsorted_.begin(), unsorted_.end(),
                       [&ch](const Unsorted& u) { return u.channel.get() == &ch; });
}

std::unique_ptr<FrameChannel> Migd::take_unsorted(FrameChannel& ch) {
  std::unique_ptr<FrameChannel> out = std::move(unsorted(ch).channel);
  std::erase_if(unsorted_, [](const Unsorted& u) { return u.channel == nullptr; });
  return out;
}

void Migd::reject(FrameChannel& ch, const char* why, bool notify_peer) {
  // Marked before the send: a fault-injected kill inside it re-enters here.
  if (std::exchange(unsorted(ch).rejected, true)) return;
  DVEMIG_WARN("migd", "inbound connection on %s torn down: %s", node_->name().c_str(), why);
  if (notify_peer) ch.send(MsgType::mig_abort, Buffer{});
  // Released on a fresh event: this runs inside the channel's callbacks.
  node_->engine().schedule_after(SimTime::zero(), [this, c = &ch] {
    DestTransport::end_channel(*c);
    std::erase_if(unsorted_, [c](const Unsorted& u) { return u.channel.get() == c; });
  });
}

std::size_t Migd::dest_session_count() const {
  std::size_t n = unsorted_.size();
  for (const auto& [mig_id, transport] : dst_transports_) n += transport->channel_count();
  return n;
}

}  // namespace dvemig::mig
