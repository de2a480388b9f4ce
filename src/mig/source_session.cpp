// The source role of migd: one SourceSession per outbound migration drives
// the precopy loop and the freeze (Section II-B), sending every frame through
// its SourceTransport.
#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/log.hpp"
#include "src/mig/migd.hpp"
#include "src/mig/session.hpp"
#include "src/mig/test_hooks.hpp"
#include "src/mig/transport.hpp"

namespace dvemig::mig {

namespace {

/// Capacity hint per socket when pre-reserving the unified buffer for a full
/// dump: the real bytes of a TCP record with a short queue (its ~2.9 KB of
/// struct pads are fill runs and take no buffer space).
constexpr std::size_t kFullDumpReserveBytes = 256;

/// `rec`'s encoding in a writer whose real bytes are sized once: a page
/// delta's 8-byte page numbers are real, its 4 KiB page payloads fill runs.
template <class R>
Bytes encode_sized(const R& rec) {
  Size size;
  size.rec(rec);
  BinaryWriter w;
  w.reserve(size.bytes() - size.fill_bytes());
  put(w, rec);
  DVEMIG_ASSERT(w.size() == size.bytes());
  return w.take_bytes();
}

/// The unified socket_state buffer, cut into self-contained frames at record
/// boundaries. Each chunk opens with its own record-count prefix (back-patched
/// when the chunk closes), so no frame outgrows the channel's kMaxFrameLen
/// sanity cap however many sockets a dump carries. A dump that fits in one
/// chunk — the common case — is byte-for-byte the pre-chunking single frame.
class SockStateChunks {
 public:
  explicit SockStateChunks(std::size_t limit) : limit_(limit) { open(); }

  BinaryWriter& writer() { return buf_; }
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Call after each emitted record: cuts a fresh chunk once the open one has
  /// outgrown the limit. Cutting only between records keeps every frame
  /// independently parseable; a chunk may overshoot by at most one record.
  void record_emitted() {
    total_ += 1;
    open_records_ += 1;
    if (buf_.size() - starts_.back() >= limit_) {
      close_open();
      open();
    }
  }

  std::uint32_t total_records() const { return total_; }
  /// Bytes of record payload, excluding the per-chunk count prefixes — what
  /// the subtraction cost model prices.
  std::size_t record_bytes() const {
    return buf_.size() - starts_.size() * sizeof(std::uint32_t);
  }
  /// Bytes that will actually go on the wire (prefixes included).
  std::size_t wire_bytes() const { return buf_.size(); }
  const std::vector<std::size_t>& starts() const { return starts_; }

  /// Patch the open chunk's count — or drop it entirely if a cut left it
  /// empty after the final record. Must run before take()/sending.
  void finish() {
    if (starts_.size() > 1 &&
        buf_.size() - starts_.back() == sizeof(std::uint32_t)) {
      buf_.truncate_to(starts_.back());
      starts_.pop_back();
      return;  // the now-last chunk was already patched when it closed
    }
    buf_.patch_u32(open_records_, starts_.back());
  }

  Bytes take() { return buf_.take_bytes(); }

 private:
  void open() {
    starts_.push_back(buf_.mark());
    buf_.u32(0);
    open_records_ = 0;
  }
  void close_open() { buf_.patch_u32(open_records_, starts_.back()); }

  BinaryWriter buf_;
  std::size_t limit_;
  std::vector<std::size_t> starts_;  // offset of each chunk's count prefix
  std::uint32_t open_records_{0};
  std::uint32_t total_{0};
};

}  // namespace

class Migd::SourceSession : public Session<Migd::SourceSession> {
 public:
  SourceSession(Migd& owner, std::shared_ptr<proc::Process> proc,
                net::Ipv4Addr dest, MigrateOptions options)
      : Session(owner), proc_(std::move(proc)), dest_(dest) {
    config_ = options.config;
    config_.parallelism = std::clamp(config_.parallelism, 1, kMaxParallelism);
    stats_.pid = proc_->pid();
    stats_.proc_name = proc_->name();
    stats_.strategy = options.strategy;
    stats_.live = options.live;
    stats_.parallelism = config_.parallelism;
    stats_.src_node = node_->local_addr();
    stats_.dst_node = dest;
    loop_timeout_ns_ = cm().initial_loop_timeout_ns;
    obs_track_ = tracer().track(node_->name() + "/migd.src");
  }

  /// Coarse progress marker, mirrored 1:1 by the span tree: every write below
  /// sits next to the begin/end of the span that covers the same interval
  /// (tools/lint_dvemig.py enforces this pairing for new phase writes).
  enum class Phase : std::uint8_t { idle, connect, precopy, freeze, done };

  Phase phase() const { return phase_; }

  void begin() {
    stats_.t_start = engine().now();
    span_total_ = tracer().begin(obs_track_, "mig.total");
    tracer().attr(span_total_, "pid", std::to_string(stats_.pid.value));
    tracer().attr(span_total_, "strategy", strategy_name(stats_.strategy));
    tracer().attr(span_total_, "live", stats_.live ? "1" : "0");
    phase_ = Phase::connect;
    ctrl_ = node_->stack().make_udp();
    ctrl_->bind(node_->local_addr(), 0);
    ctrl_->set_on_readable([self = shared_from_this()] { self->on_ctrl_readable(); });

    sock_ = node_->stack().make_tcp();
    sock_->bind(node_->local_addr(), 0);
    sock_->set_on_connected([self = shared_from_this()] { self->on_connected(); });
    sock_->set_on_reset([self = shared_from_this()] { self->fail("connection reset"); });
    sock_->connect(net::Endpoint{dest_, kMigdPort});
    // Destinations without a reachable migd never answer the SYN; give up.
    connect_timer_ = engine().schedule_after(
        SimTime::seconds(2), [self = shared_from_this()] {
          if (self->sock_->state() != stack::TcpState::established) {
            self->sock_->abort();
            self->fail("destination migd unreachable");
          }
        });
    // No frame-level retransmission exists, so a lost control frame would
    // otherwise hang this session forever — with the process frozen if the
    // loss hits during the freeze phase.
    watchdog_ = engine().schedule_after(
        SimTime::nanoseconds(cm().migration_watchdog_ns),
        [self = shared_from_this()] { self->fail("migration watchdog expired"); });
  }

  MigrationStats& stats() { return stats_; }

  /// Break the session <-> socket/channel reference cycles: every callback
  /// installed above captures shared_from_this(), so a finished session would
  /// otherwise keep itself (and its sockets, trackers and staged state) alive
  /// forever. Must not run inside one of those callbacks — clearing a
  /// std::function that is currently executing destroys its captures mid-call.
  void detach_callbacks() {
    connect_timer_.cancel();
    watchdog_.cancel();
    if (transport_) transport_->detach_callbacks();
    if (sock_) {
      sock_->set_on_connected(nullptr);
      sock_->set_on_reset(nullptr);
      sock_->set_on_drained(nullptr);
    }
    if (ctrl_) ctrl_->set_on_readable(nullptr);
  }

 private:
  struct MigSocket {
    Fd fd;
    std::shared_ptr<stack::Socket> sock;
    bool in_cluster{false};       // local addr is this node's cluster address
    bool translatable{false};     // connected in-cluster socket needing a filter
    net::Endpoint orig_remote{};  // remote endpoint as stored in the socket
    net::Endpoint effective_remote{};  // where the peer actually lives now
  };

  /// finish()/fail() run inside channel or socket callbacks; detach on a
  /// fresh event once the dispatch that called us has unwound.
  void detach_later() {
    engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
      self->detach_callbacks();
    });
  }

  /// Close the transport (sending mig_abort first if `abort`) and count its
  /// stripe traffic.
  void close_transport(bool abort) {
    if (!transport_) return;
    transport_->close(abort);
    auto& m = MigMetrics::get();
    m.stripe_segments.add(transport_->segments_sent());
    m.stripe_bytes.add(transport_->segment_bytes());
  }

  void fail(const std::string& why, bool tell_dest = true) {
    // Duplicated mig_abort (or a reset racing an abort) must not fail twice:
    // the first failure already resumed the process, counted the metric and
    // handed the stats to the owner.
    if (phase_ == Phase::done) return;
    DVEMIG_WARN("migd", "migration of pid %u failed: %s", stats_.pid.value,
                why.c_str());
    // Undo the freeze's socket subtraction before waking the process: restore
    // retargeted remote endpoints, then rehash and re-enable every socket the
    // freeze disabled.
    for (const MigSocket& ms : sockets_) {
      if (ms.sock->migration_disabled()) ms.sock->set_remote(ms.orig_remote);
      ms.sock->attach();
    }
    if (proc_->frozen()) proc_->resume();  // best effort: keep the source alive
    stats_.success = false;
    // Close the whole span tree inner-to-outer so depths unwind cleanly.
    close_span(span_stage_);
    close_span(span_round_);
    close_span(span_precopy_);
    close_span(span_freeze_);
    if (span_total_ != 0) tracer().attr(span_total_, "error", why);
    close_span(span_total_);
    phase_ = Phase::done;
    MigMetrics::get().failed.add(1);
    // Tell the destination the migration is dead — it may hold armed capture
    // filters and a staged image — and release both control sockets. A silent
    // source-side failure used to leak the dest session, whose filters kept
    // stealing the process's packets forever. A destination that aborted
    // first already knows: no frame follows a mig_abort on a channel.
    close_transport(/*abort=*/tell_dest);
    if (sock_) sock_->close();
    if (ctrl_) ctrl_->close();
    detach_later();
    owner_->source_finished(stats_);
  }

  void on_connected() {
    transport_ = std::make_unique<SourceTransport>(
        sock_,
        [self = shared_from_this()](MsgType t, BinaryReader& r) {
          self->on_frame(t, r);
        },
        [self = shared_from_this()](const std::string& why, bool deferred) {
          if (!deferred) return self->fail(why);
          // Deferred one event so the channel is not torn down from inside
          // its own receive path.
          DVEMIG_WARN("migd", "pid %u %s", self->stats_.pid.value, why.c_str());
          self->engine().schedule_after(SimTime::zero(),
                                        [self] { self->fail("malformed frame"); });
        });
    mig_id_ = (std::uint64_t{node_->local_addr().value} << 20) | ++owner_->next_mig_id_;
    BinaryWriter w;
    put(w, MigBegin{.pid = stats_.pid,
                    .name = proc_->name(),
                    .strategy = static_cast<std::uint8_t>(stats_.strategy),
                    .src_local = node_->local_addr(),
                    .mig_id = mig_id_,
                    .stripe_count = static_cast<std::uint8_t>(config_.parallelism)});
    transport_->send(MsgType::mig_begin, w.take());
    connect_timer_.cancel();
    if (config_.parallelism > 1) {
      transport_->open_stripes(node_->stack(), config_.parallelism - 1, mig_id_,
                               obs_track_);
    }
    if (stats_.live) {
      span_precopy_ = tracer().begin(obs_track_, "mig.precopy");
      phase_ = Phase::precopy;
      precopy_round();
    } else {
      // Stop-and-copy: no precopy — the process is down for the whole transfer
      // (the first tracker round inside the freeze ships the entire image).
      enter_freeze();
    }
  }

  void on_frame(MsgType type, BinaryReader& r) {
    // A finished session can still see frames already in flight (a duplicated
    // mig_abort, a straggling ack); they refer to a migration that no longer
    // exists.
    if (phase_ == Phase::done) return;
    switch (type) {
      case MsgType::capture_enabled:
        if (on_capture_enabled_) std::exchange(on_capture_enabled_, nullptr)();
        return;
      case MsgType::socket_ack:
        if (on_socket_ack_) std::exchange(on_socket_ack_, nullptr)();
        return;
      case MsgType::resume_done: {
        // The destination reports its resume instant on the shared simulated
        // timeline; the freeze span ends there, not at frame arrival.
        const auto t_resume = SimTime::nanoseconds(r.i64());
        stats_.captured = r.u64();
        stats_.reinjected = r.u64();
        tracer().end_at(span_freeze_, t_resume.ns);
        tracer().end_at(span_total_, t_resume.ns);
        finish(t_resume);
        return;
      }
      case MsgType::mig_abort:
        fail("aborted by destination", /*tell_dest=*/false);
        return;
      default:
        fail("unexpected frame");
        return;
    }
  }

  // ---------------- socket dumps ----------------

  /// A fresh unified socket_state buffer.
  SockStateChunks open_dump() {
    return SockStateChunks(static_cast<std::size_t>(cm().socket_chunk_bytes));
  }

  /// Serialize one socket's record into `chunks`. `force_all` distinguishes
  /// full dumps (iterative, collective) from incremental deltas, which leave
  /// an unchanged socket out entirely.
  void emit_socket(Fd fd, const stack::Socket& sock, SockStateChunks& chunks,
                   bool force_all) {
    const SectionFlags sent =
        sock.type() == stack::SocketType::tcp
            ? sock_tracker_.emit_tcp(
                  extract_tcp(static_cast<const stack::TcpSocket&>(sock), fd),
                  chunks.writer(), force_all)
            : sock_tracker_.emit_udp(
                  extract_udp(static_cast<const stack::UdpSocket&>(sock), fd),
                  chunks.writer(), force_all);
    if (sent != SectionFlags::none) chunks.record_emitted();
  }

  /// Close a dump and ship it as socket_state frames, one per chunk, adding
  /// its wire bytes to `stat`; an empty dump sends nothing.
  void send_dump(SockStateChunks& chunks, std::uint64_t& stat) {
    if (chunks.total_records() == 0) return;
    chunks.finish();
    stat += chunks.wire_bytes();
    transport_->send(MsgType::socket_state, chunks.take(), chunks.starts());
  }

  // ---------------- precopy ----------------

  void precopy_round() {
    span_round_ = tracer().begin(obs_track_, "mig.precopy_round");
    ckpt::MemoryDelta delta = mem_tracker_.round(proc_->mem());
    const std::size_t pages = delta.dirty_pages.size();

    // Incremental collective: track socket changes during precopy as well,
    // serialized straight into the unified socket_state buffer.
    SockStateChunks chunks = open_dump();
    std::size_t scanned = 0;
    if (stats_.strategy == SocketMigStrategy::incremental_collective) {
      for (const auto& [fd, file] : proc_->files().entries()) {
        if (file.kind != proc::FileKind::socket) continue;
        scanned += 1;
        if (file.socket->type() == stack::SocketType::tcp &&
            static_cast<const stack::TcpSocket&>(*file.socket).held_by_user()) {
          continue;  // leave for a later loop or the freeze
        }
        emit_socket(fd, *file.socket, chunks, /*force_all=*/false);
      }
    }
    const std::size_t sock_bytes = chunks.record_bytes();

    // The dirty scan and the socket checks shard across the worker pool and
    // feed the serialize stage.
    ShardedCost cost(config_.parallelism);
    cost.items(pages, cm().page_copy_ns);
    cost.items(scanned, cm().socket_delta_check_ns);
    cost.bytes(static_cast<double>(sock_bytes), cm().per_byte_subtract_ns);
    cost.bytes(static_cast<double>(pages) * static_cast<double>(proc::kPageSize + 8) +
                   static_cast<double>(sock_bytes),
               cm().serialize_ns_per_byte(config_.parallelism));
    tracer().attr(span_round_, "shards", std::to_string(config_.parallelism));

    const std::uint32_t sock_records = chunks.total_records();
    after_parallel(cost.cpu(), cost.elapsed(),
                   [this, delta = std::move(delta), chunks = std::move(chunks),
                    sock_records]() mutable {
      transport_->send(MsgType::memory_delta, encode_sized(delta));
      send_dump(chunks, stats_.precopy_socket_bytes);
      stats_.precopy_rounds += 1;
      tracer().attr(span_round_, "round", std::to_string(stats_.precopy_rounds));
      tracer().attr(span_round_, "dirty_pages",
                    std::to_string(delta.dirty_pages.size()));
      tracer().attr(span_round_, "socket_records", std::to_string(sock_records));
      DVEMIG_DEBUG("migd", "pid %u precopy round %d: %zu dirty pages, %u socket "
                   "records, next timeout %.1f ms",
                   stats_.pid.value, stats_.precopy_rounds,
                   delta.dirty_pages.size(), sock_records,
                   static_cast<double>(loop_timeout_ns_) / 1e6);

      const bool last = loop_timeout_ns_ <= cm().freeze_threshold_ns ||
                        stats_.precopy_rounds >= cm().max_precopy_rounds;
      const SimDuration wait = SimTime::nanoseconds(loop_timeout_ns_);
      loop_timeout_ns_ = static_cast<std::int64_t>(
          static_cast<double>(loop_timeout_ns_) * cm().loop_decay);
      // Pace the loop on transfer completion: the timeout window starts once
      // this round's data has actually reached the destination. Otherwise
      // successive rounds pile up in the channel's send queue and the freeze
      // phase's tiny control messages crawl out behind megabytes of pages.
      transport_->when_drained([self = shared_from_this(), wait, last] {
        // The round span covers scan + serialize + the transfer itself: it
        // closes when this round's bytes have actually left the send queue.
        self->close_span(self->span_round_);
        self->engine().schedule_after(wait, [self, last] {
          if (last) {
            self->enter_freeze();
          } else {
            self->precopy_round();
          }
        });
      });
    });
  }

  // ---------------- freeze ----------------

  void enter_freeze() {
    DVEMIG_DEBUG("migd", "pid %u entering freeze at %.3f ms", stats_.pid.value,
                 engine().now().to_ms());
    close_span(span_precopy_);
    span_freeze_ = tracer().begin(obs_track_, "mig.freeze");
    phase_ = Phase::freeze;
    stats_.t_freeze_begin = engine().now();  // == the span's begin instant
    stats_.precopy_channel_bytes = transport_->logical_bytes();
    proc_->freeze();

    // Gather the fd-ordered socket list (BLCR's fd table iteration).
    sockets_.clear();
    for (const auto& [fd, file] : proc_->files().entries()) {
      if (file.kind != proc::FileKind::socket) continue;
      MigSocket ms;
      ms.fd = fd;
      ms.sock = file.socket;
      ms.in_cluster = ms.sock->local().addr == node_->local_addr();
      ms.orig_remote = ms.sock->remote();
      ms.effective_remote = ms.orig_remote;
      if (ms.sock->type() == stack::SocketType::tcp) {
        const auto& tcp = static_cast<const stack::TcpSocket&>(*ms.sock);
        ms.translatable = ms.in_cluster && tcp.cb().state != stack::TcpState::listen;
      } else {
        ms.translatable =
            ms.in_cluster && static_cast<const stack::UdpSocket&>(*ms.sock).cb().connected;
      }
      if (ms.translatable) {
        // Mutual-migration support: if the peer of this connection migrated
        // earlier, a local translation rule knows its current host; the new
        // filter, the capture specs and the restored socket must all target
        // that host, not the connection's original address.
        if (const auto rule = owner_->translation_.find_rule(ms.sock->local(),
                                                             ms.orig_remote)) {
          ms.effective_remote.addr = rule->mig_new_addr;
        }
      }
      sockets_.push_back(std::move(ms));
    }
    stats_.socket_count = sockets_.size();

    after(SimTime::nanoseconds(cm().signal_roundtrip_ns), [this] { freeze_batch(0); });
  }

  std::vector<CaptureSpec> specs_for(const MigSocket& ms) const {
    std::vector<CaptureSpec> specs;
    if (ms.sock->type() == stack::SocketType::tcp) {
      specs = capture_specs_for_tcp(static_cast<const stack::TcpSocket&>(*ms.sock));
    } else {
      specs = {capture_spec_for_udp(static_cast<const stack::UdpSocket&>(*ms.sock))};
    }
    if (ms.effective_remote != ms.orig_remote) {
      for (CaptureSpec& spec : specs) {
        if (spec.match_remote && spec.remote == ms.orig_remote) {
          spec.remote = ms.effective_remote;
        }
      }
    }
    return specs;
  }

  void send_capture_request(const CaptureRequest& req, std::function<void()> then) {
    span_stage_ = tracer().begin(obs_track_, "mig.capture_arm");
    tracer().attr(span_stage_, "specs", std::to_string(req.specs.size()));
    BinaryWriter w;
    put(w, req);
    on_capture_enabled_ = [this, then = std::move(then)] {
      close_span(span_stage_);
      then();
    };
    transport_->send(MsgType::capture_request, w.take());
  }

  /// In-cluster connections need a translation filter on the peer before the
  /// socket goes down (Section III-C ordering). The filter is installed on the
  /// peer's *current* host (effective remote), which may itself be the result
  /// of an earlier migration.
  void request_translations(std::size_t begin, std::size_t end,
                            std::function<void()> then) {
    DVEMIG_ASSERT(pending_trans_.empty());
    span_stage_ = tracer().begin(obs_track_, "mig.translate");
    on_trans_done_ = [this, then = std::move(then)] {
      close_span(span_stage_);
      then();
    };
    for (std::size_t i = begin; i < end; ++i) {
      const MigSocket& ms = sockets_[i];
      if (!ms.translatable) continue;
      TranslationRule rule;
      rule.proto = ms.sock->type() == stack::SocketType::tcp ? net::IpProto::tcp
                                                             : net::IpProto::udp;
      rule.peer_local = ms.effective_remote;
      rule.mig_old = ms.sock->local();
      rule.mig_new_addr = dest_;
      BinaryWriter w;
      const std::uint64_t req = ++next_trans_req_;
      put(w, TransdRequest{req, rule});
      pending_trans_.insert(req);
      ctrl_->send_to(net::Endpoint{ms.effective_remote.addr, kTransdPort}, w.take());
    }
    if (pending_trans_.empty() && on_trans_done_) {
      std::exchange(on_trans_done_, nullptr)();
    }
  }

  /// transd acks: one u64 request id each. Anything else reaching this port
  /// (a stray or truncated datagram, a duplicate or unknown ack) is dropped.
  void on_ctrl_readable() {
    while (auto dgram = ctrl_->recv()) {
      BinaryReader r(dgram->data);
      TransdAck ack;
      if (!get_payload(r, ack)) {
        DVEMIG_WARN("migd", "pid %u dropped %zu-byte datagram on the translation "
                    "ack port", stats_.pid.value, dgram->data.size());
        continue;
      }
      const std::uint64_t req = ack.req_id;
      if (pending_trans_.erase(req) == 0) {
        DVEMIG_WARN("migd", "pid %u dropped unexpected translation ack %llu",
                    stats_.pid.value, static_cast<unsigned long long>(req));
        continue;
      }
      if (pending_trans_.empty() && on_trans_done_) {
        std::exchange(on_trans_done_, nullptr)();
      }
    }
  }

  // The freeze pipeline, one batch of fd-ordered sockets at a time: capture
  // request -> translation requests -> disable -> subtract into one unified
  // buffer -> send. Collective and incremental (Section III-C three-phase) run
  // one batch holding every socket: one capture request, one buffer, one
  // transfer. Iterative runs one socket per batch and waits for its
  // socket_ack before the next — the repeated computation/transmission
  // interleaving the paper identifies as the bottleneck.
  bool per_socket() const { return stats_.strategy == SocketMigStrategy::iterative; }

  void freeze_batch(std::size_t begin) {
    if (per_socket() && begin == sockets_.size()) {
      final_transfer();
      return;
    }
    const std::size_t end = per_socket() ? begin + 1 : sockets_.size();
    CaptureRequest req;
    for (std::size_t i = begin; i < end; ++i) {
      for (const CaptureSpec& s : specs_for(sockets_[i])) req.specs.push_back(s);
    }
    DVEMIG_DEBUG("migd", "pid %u capture: %zu specs for sockets [%zu, %zu)",
                 stats_.pid.value, req.specs.size(), begin, end);
    send_capture_request(req, [this, begin, end] {
      request_translations(begin, end, [this, begin, end] { subtract(begin, end); });
    });
  }

  void subtract(std::size_t begin, std::size_t end) {
    span_stage_ = tracer().begin(obs_track_, "mig.subtract");
    // Detach each socket and, for peers that moved, retarget its remote
    // endpoint to the peer's current host before extraction.
    for (std::size_t i = begin; i < end; ++i) {
      sockets_[i].sock->detach();
      sockets_[i].sock->set_remote(sockets_[i].effective_remote);
    }

    const bool incremental =
        stats_.strategy == SocketMigStrategy::incremental_collective;
    // The unified transfer buffer — the paper's "one buffer, one transfer"
    // collective design, literally: every socket serializes straight into it
    // (no per-socket intermediates), behind a record-count prefix that is
    // back-patched before send. Full dumps pre-reserve so a 10^5-socket
    // freeze never reallocates mid-serialization.
    SockStateChunks chunks = open_dump();
    if (!incremental) {
      chunks.reserve(sizeof(std::uint32_t) + (end - begin) * kFullDumpReserveBytes);
    }
    // Per-socket record sizes, kept to price each worker's batch. The emit
    // itself stays serial in fd order — the unified buffer is byte-identical
    // at every degree; workers merely partition it.
    std::vector<std::size_t> record_bytes;
    record_bytes.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t before = chunks.record_bytes();
      emit_socket(sockets_[i].fd, *sockets_[i].sock, chunks, !incremental);
      record_bytes.push_back(chunks.record_bytes() - before);
    }
    const std::uint32_t records = chunks.total_records();
    const std::size_t subtract_bytes = chunks.record_bytes();

    const auto batch_cost = [&](std::size_t n_socks, std::size_t n_bytes) {
      // Incremental tracking already paid the per-socket walk during precopy;
      // the freeze-phase check is a cheap hash compare per socket.
      if (incremental) {
        return SimTime::nanoseconds(
            static_cast<std::int64_t>(n_socks) * cm().socket_delta_check_ns +
            static_cast<std::int64_t>(static_cast<double>(n_bytes) *
                                      cm().per_byte_subtract_ns));
      }
      return cm().subtract_cost(n_socks, n_bytes);
    };
    // Workers subtract contiguous fd-order shards; the merge into the unified
    // buffer preserves that order. Elapsed = slowest shard. A one-socket
    // batch is one shard at any degree, i.e. the serial cost.
    SimDuration elapsed = SimTime::zero();
    for (const auto& shard : ckpt::DirtyTracker::shard_ranges(
             end - begin, static_cast<std::size_t>(config_.parallelism))) {
      std::size_t shard_bytes = 0;
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        shard_bytes += record_bytes[i];
      }
      elapsed = std::max(elapsed, batch_cost(shard.size(), shard_bytes));
    }
    tracer().attr(span_stage_, "shards", std::to_string(config_.parallelism));
    DVEMIG_DEBUG("migd", "pid %u subtract: %u records, %zu bytes", stats_.pid.value,
                 records, subtract_bytes);
    tracer().attr(span_stage_, "records", std::to_string(records));
    tracer().attr(span_stage_, "bytes", std::to_string(subtract_bytes));
    after_parallel(batch_cost(end - begin, subtract_bytes), elapsed,
                   [this, end, chunks = std::move(chunks)]() mutable {
      close_span(span_stage_);
      if (per_socket()) on_socket_ack_ = [this, end] { freeze_batch(end); };
      send_dump(chunks, stats_.freeze_socket_bytes);
      if (!per_socket()) final_transfer();
    });
  }

  // Final incremental memory step + BLCR's regular fd-table iteration (process
  // metadata, excluding the already-processed network connections).
  void final_transfer() {
    span_stage_ = tracer().begin(obs_track_, "mig.final_transfer");
    ckpt::MemoryDelta delta = mem_tracker_.round(proc_->mem());
    const std::size_t pages = delta.dirty_pages.size();
    tracer().attr(span_stage_, "dirty_pages", std::to_string(pages));
    ShardedCost cost(config_.parallelism);
    cost.items(pages, cm().page_copy_ns);
    cost.serial(cm().process_meta_ns);
    cost.bytes(static_cast<double>(pages) * static_cast<double>(proc::kPageSize + 8),
               cm().serialize_ns_per_byte(config_.parallelism));
    tracer().attr(span_stage_, "shards", std::to_string(config_.parallelism));
    after_parallel(cost.cpu(), cost.elapsed(), [this, delta = std::move(delta)]() mutable {
      close_span(span_stage_);
      transport_->send(MsgType::memory_delta, encode_sized(delta));
      transport_->send(MsgType::process_image,
                       encode_sized(ckpt::snapshot_process(*proc_)));
      // Now await resume_done.
    });
  }

  void finish(SimTime t_resume) {
    stats_.freeze_channel_bytes =
        transport_->logical_bytes() - stats_.precopy_channel_bytes;
    stats_.success = true;

    // The stats' freeze window is *derived from the span tree*: the span is
    // the source of truth, so trace JSON and MigrationStats can never drift
    // apart. (Fallback to the frame-carried value if the ring already evicted
    // the span — possible only with a tiny tracer capacity.)
    if (const obs::Span* fz = tracer().find(span_freeze_)) {
      stats_.t_freeze_begin = SimTime::nanoseconds(fz->t_begin_ns);
      stats_.t_resume = SimTime::nanoseconds(fz->t_end_ns);
    } else {
      stats_.t_resume = t_resume;
    }
    span_freeze_ = 0;
    span_total_ = 0;
    phase_ = Phase::done;

    auto& m = MigMetrics::get();
    m.completed.add(1);
    m.freeze_bytes.add(stats_.freeze_channel_bytes);
    m.precopy_bytes.add(stats_.precopy_channel_bytes);
    m.freeze_time_us.record(static_cast<double>(stats_.freeze_time().ns) / 1e3);
    m.total_time_us.record(static_cast<double>(stats_.total_time().ns) / 1e3);
    m.precopy_rounds.record(stats_.precopy_rounds);
    // Rules that translated for the just-migrated sockets are now dead weight on
    // this node (their subject no longer lives here): drop them.
    for (const MigSocket& ms : sockets_) {
      if (ms.translatable) {
        owner_->translation_.remove_matching(ms.sock->local(), ms.orig_remote);
      }
    }
    node_->kill(stats_.pid);
    close_transport(/*abort=*/false);
    sock_->close();
    ctrl_->close();
    detach_later();
    owner_->source_finished(stats_);
  }

  std::shared_ptr<proc::Process> proc_;
  net::Ipv4Addr dest_;
  MigrationStats stats_;
  MigrationConfig config_;

  stack::TcpSocket::Ptr sock_;
  std::unique_ptr<SourceTransport> transport_;  // from on_connected() on
  std::shared_ptr<stack::UdpSocket> ctrl_;
  sim::TimerHandle connect_timer_;
  sim::TimerHandle watchdog_;
  std::uint64_t mig_id_{0};

  ckpt::DirtyTracker mem_tracker_;
  SocketDeltaTracker sock_tracker_;
  std::int64_t loop_timeout_ns_{0};

  std::vector<MigSocket> sockets_;
  std::unordered_set<std::uint64_t> pending_trans_;  // unacked transd request ids
  std::uint64_t next_trans_req_{0};

  std::function<void()> on_capture_enabled_;
  std::function<void()> on_socket_ack_;
  std::function<void()> on_trans_done_;

  Phase phase_{Phase::idle};
  std::uint32_t obs_track_{0};
  obs::SpanId span_total_{0};
  obs::SpanId span_precopy_{0};
  obs::SpanId span_round_{0};
  obs::SpanId span_freeze_{0};
  obs::SpanId span_stage_{0};  // current freeze stage (capture/translate/...)
};

// ==================================================================== Migd

void Migd::detach_source_session() {
  if (src_session_) src_session_->detach_callbacks();
}

bool Migd::migrate(Pid pid, net::Ipv4Addr dest_local, MigrateOptions options,
                   DoneFn done) {
  if (src_session_ != nullptr) return false;
  auto proc = node_->find(pid);
  DVEMIG_EXPECTS(proc != nullptr);
  done_ = std::move(done);
  src_session_ = std::make_shared<SourceSession>(*this, std::move(proc), dest_local,
                                                 options);
  src_session_->begin();
  return true;
}

void Migd::source_finished(const MigrationStats& stats) {
  src_session_.reset();
  if (done_) std::exchange(done_, nullptr)(stats);
}

int Migd::src_phase() const {
  return src_session_ ? static_cast<int>(src_session_->phase()) : -1;
}

}  // namespace dvemig::mig
