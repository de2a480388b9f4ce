// The destination role of migd: a DestSession, opened by a mig_begin, receives
// one migration's logical frames through its DestTransport, restores the
// process and resumes it.
#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/ckpt/restore.hpp"
#include "src/common/log.hpp"
#include "src/mig/migd.hpp"
#include "src/mig/session.hpp"
#include "src/mig/test_hooks.hpp"
#include "src/mig/transport.hpp"

namespace dvemig::mig {

class Migd::DestSession : public Session<Migd::DestSession> {
 public:
  DestSession(Migd& owner, std::shared_ptr<DestTransport> transport)
      : Session(owner), transport_(std::move(transport)) {}

  /// One migration's lifecycle on this node, mirrored by the mig.receive
  /// span (mig.restore nested inside) on the node's migd.dst track:
  ///   receiving (mig_begin) -> restoring (process_image)
  ///     -> resumed (process adopted, resume_done sent) -> retired,
  /// and any phase -> retired on failure. Every write sits next to the span
  /// operation that covers the same instant (tools/lint_dvemig.py enforces
  /// the pairing).
  enum class Phase : std::uint8_t { receiving, restoring, resumed, retired };

  /// Start the migration `begin` announces on `primary`, its mig_begin
  /// connection.
  void begin(const MigBegin& begin, std::unique_ptr<FrameChannel> primary) {
    obs_track_ = tracer().track(node_->name() + "/migd.dst");
    span_receive_ = tracer().begin(obs_track_, "mig.receive");
    pid_ = begin.pid;
    src_local_ = begin.src_local;
    stripe_count_ = std::max<int>(1, begin.stripe_count);
    tracer().attr(span_receive_, "pid", std::to_string(pid_.value));
    // The capture session must exist before any parked stripe segment is
    // replayed by open() — a parked capture_request would otherwise arm
    // against session 0.
    capture_session_ = owner_->capture_.begin_session();
    transport_->open(
        std::move(primary), stripe_count_,
        [self = shared_from_this()](MsgType t, BinaryReader& r) { self->on_frame(t, r); },
        [self = shared_from_this()](const char* why, bool notify_peer) {
          self->teardown(why, notify_peer);
        });
  }

 private:
  /// The one way out of a session. Closes the spans (recording `error` on
  /// mig.receive first), retires, optionally answers mig_abort, and on a
  /// fresh event (this runs inside channel and socket callbacks) drops the
  /// capture session and closes the transport, which releases the session.
  /// The phase changes before the send because a fault-injected kill inside
  /// it re-enters teardown() synchronously.
  void retire(const char* error = nullptr, bool send_abort = false) {
    if (error != nullptr) tracer().attr(span_receive_, "error", error);
    close_span(span_restore_);
    close_span(span_receive_);
    phase_ = Phase::retired;
    transport_->stop_receiving();
    if (send_abort) transport_->send(MsgType::mig_abort, Buffer{});
    engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
      // A no-op for committed sessions (finish_session already erased theirs).
      self->owner_->capture_.abort_session(self->capture_session_);
      self->transport_->close();
    });
  }

  /// Every failure and every end of a connection lands here. Idempotent:
  /// the abort, reset and peer-closed paths can all fire for one migration.
  void teardown(const char* why, bool notify_peer) {
    if (phase_ == Phase::retired) return;
    // Committed on this side (process adopted and running, captured packets
    // reinjected): a channel error or the source's close only ends the
    // connections; there is nothing to abort.
    if (phase_ == Phase::resumed) {
      transport_->answer_source_close();
      return retire();
    }
    DVEMIG_WARN("migd", "dest session on %s torn down: %s",
                node_->name().c_str(), why);
    retire(why, notify_peer);
  }

  void on_frame(MsgType type, BinaryReader& r) {
    switch (type) {
      case MsgType::mig_begin:
        // A duplicated mig_begin must not re-arm: begin_session() again
        // would orphan the first capture session and every spec in it.
        return teardown("duplicate mig_begin", /*notify_peer=*/true);
      case MsgType::capture_request: {
        CaptureRequest req;
        if (!get_payload(r, req)) return teardown("malformed capture_request", true);
        const std::size_t n = req.specs.size();
        DVEMIG_DEBUG("migd", "pid %u dest: capture_request with %zu specs", pid_.value, n);
        after(SimTime::nanoseconds(static_cast<std::int64_t>(n) *
                                   cm().capture_install_ns),
              [this, specs = std::move(req.specs)] {
                // An abort can land while the filters are being installed;
                // arming against the already-dropped session would crash.
                if (phase_ == Phase::retired) return;
                if (mutation() != ProtocolMutation::skip_capture_arm) {
                  for (const CaptureSpec& s : specs) {
                    owner_->capture_.add_spec(capture_session_, s);
                  }
                }
                transport_->send(MsgType::capture_enabled, Buffer{});
              });
        return;
      }
      case MsgType::socket_state: {
        // A u32 record count, then exactly that many records.
        socket_bytes_ += r.remaining() + 1;
        std::uint32_t n = 0;
        Get io = Get::checked(r);
        io.u32(n);
        bool ok = io.ok();
        std::uint32_t records = 0;
        for (; ok && !r.at_end(); ++records) ok = read_socket_record(r, staging_);
        if (!ok || records != n) return teardown("malformed socket_state", true);
        BinaryWriter w;
        w.u32(n);
        transport_->send(MsgType::socket_ack, w.take());
        return;
      }
      case MsgType::memory_delta: {
        ckpt::MemoryDelta delta;
        if (!get_payload(r, delta)) return teardown("malformed memory_delta", true);
        pages_received_ += delta.dirty_pages.size();
        return;
      }
      case MsgType::process_image: {
        if (phase_ == Phase::restoring) return teardown("duplicate process_image", true);
        if (!get_payload(r, img_)) return teardown("malformed process_image", true);
        span_restore_ = tracer().begin(obs_track_, "mig.restore");
        phase_ = Phase::restoring;
        tracer().attr(span_restore_, "pid", std::to_string(img_.pid.value));
        // Restore workers mirror the source's pool: socket reconstruction
        // shards across stripe_count_ workers, metadata stays serial.
        const auto workers = static_cast<std::size_t>(stripe_count_);
        const auto meta = SimTime::nanoseconds(cm().restore_meta_ns);
        tracer().attr(span_restore_, "shards", std::to_string(stripe_count_));
        after_parallel(
            meta + cm().restore_cost(staging_.size(), socket_bytes_),
            meta + cm().restore_cost(
                       ckpt::DirtyTracker::max_shard(staging_.size(), workers),
                       ckpt::DirtyTracker::max_shard(
                           static_cast<std::size_t>(socket_bytes_), workers)),
            [this] { do_restore(); });
        return;
      }
      case MsgType::mig_abort:
        // Not just the capture session: the socket, the channel and the
        // session object itself are dead weight after an abort.
        return teardown("aborted by source", /*notify_peer=*/false);
      default:
        return teardown("unexpected frame", /*notify_peer=*/true);
    }
  }

  void do_restore() {
    // The session can be torn down (abort, source crash) while the restore
    // cost was being paid; restoring from a dropped capture session would
    // resurrect a migration both sides consider dead.
    if (phase_ == Phase::retired) return;
    DVEMIG_DEBUG("migd", "pid %u restore on %s: %zu staged sockets, %llu socket "
                 "bytes, %llu pages",
                 img_.pid.value, node_->name().c_str(), staging_.size(),
                 static_cast<unsigned long long>(socket_bytes_),
                 static_cast<unsigned long long>(pages_received_));
    auto proc = ckpt::restore_process(*node_, img_);

    RestoreContext ctx;
    ctx.stack = &node_->stack();
    ctx.src_node_local_addr = src_local_;
    ctx.dst_node_local_addr = node_->local_addr();
    ctx.src_jiffies_at_ckpt = img_.src_jiffies;
    ctx.src_local_now_at_ckpt_ns = img_.src_local_now_ns;
    ctx.adjust_timestamps = owner_->adjust_timestamps_;

    // Reattach sockets at their original fds, in fd order. Validate the whole
    // staging set *before* touching the stack: a lost socket_state frame can
    // leave the image referencing sockets that never arrived (found by
    // dvemig-mc's drop-fault exploration), and noticing that halfway through
    // would leave freshly-rehashed sockets behind on an aborted restore.
    std::unordered_map<Fd, const StagedSocket*> by_fd;
    for (const auto& [key, staged] : staging_) {
      if (!staged.complete()) return teardown("incomplete staged socket record", true);
      by_fd[staged.proto == net::IpProto::tcp ? staged.tcp.fd : staged.udp.fd] =
          &staged;
    }
    for (const Fd fd : img_.socket_fds) {
      if (by_fd.find(fd) == by_fd.end()) {
        return teardown("process image references a socket that was never staged",
                        /*notify_peer=*/true);
      }
    }
    for (const Fd fd : img_.socket_fds) {
      const StagedSocket& staged = *by_fd.find(fd)->second;
      if (staged.proto == net::IpProto::tcp) {
        proc->files().attach_socket_at(fd, restore_tcp(staged.tcp, ctx));
      } else {
        proc->files().attach_socket_at(fd, restore_udp(staged.udp, ctx));
      }
    }

    node_->adopt(proc);
    proc->resume();

    // Reinjection after the sockets are rehashed (Section V-B).
    const std::size_t captured = owner_->capture_.queued(capture_session_);
    const std::size_t reinjected = owner_->capture_.finish_session(capture_session_);

    tracer().attr(span_restore_, "sockets", std::to_string(staging_.size()));
    tracer().attr(span_restore_, "reinjected", std::to_string(reinjected));
    close_span(span_restore_);
    close_span(span_receive_);
    phase_ = Phase::resumed;
    transport_->stop_receiving();
    MigMetrics::get().restores.add(1);

    // The source closes its connections once it has this, and the first of
    // them to end retires the session.
    BinaryWriter w;
    w.i64(engine().now().ns);
    w.u64(captured);
    w.u64(reinjected);
    const Bytes done_payload = w.take();
    transport_->send(MsgType::resume_done, done_payload);
    if (mutation() == ProtocolMutation::double_resume_done) {
      transport_->send(MsgType::resume_done, done_payload);
    }
  }

  std::shared_ptr<DestTransport> transport_;

  Phase phase_{Phase::receiving};  // from mig_begin, with mig.receive
  Pid pid_{};
  net::Ipv4Addr src_local_{};
  std::uint64_t capture_session_{0};
  int stripe_count_{1};  // source parallelism announced in mig_begin

  SocketStaging staging_;
  std::uint64_t socket_bytes_{0};
  std::uint64_t pages_received_{0};
  ckpt::ProcessImage img_;
  std::uint32_t obs_track_{0};
  obs::SpanId span_receive_{0};
  obs::SpanId span_restore_{0};
};

// ==================================================================== Migd

void Migd::begin_dest_session(const MigBegin& begin, std::shared_ptr<DestTransport> transport,
                              std::unique_ptr<FrameChannel> primary) {
  std::make_shared<DestSession>(*this, std::move(transport))->begin(begin, std::move(primary));
}

}  // namespace dvemig::mig
