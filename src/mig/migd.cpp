#include "src/mig/migd.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/log.hpp"
#include "src/mig/test_hooks.hpp"
#include "src/mig/transport.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace dvemig::mig {

namespace {

/// Pseudo-pid used to charge kernel-side migration work to the CPU meter.
constexpr Pid kKernelPid{1};

/// Capacity hint per socket when pre-reserving the unified buffer for a full
/// dump (struct pads dominate: ~2.9 KB TCP + queues; generous is fine, the
/// buffer is recycled).
constexpr std::size_t kFullDumpReserveBytes = 4096;

/// migd -> transd request: u64 request id, then the rule. transd -> migd ack:
/// the u64 request id alone.
constexpr std::size_t kTransdRequestBytes =
    sizeof(std::uint64_t) + TranslationRule::kWireBytes;
constexpr std::size_t kTransdAckBytes = sizeof(std::uint64_t);

/// The unified socket_state buffer, cut into self-contained frames at record
/// boundaries. Each chunk opens with its own record-count prefix (back-patched
/// when the chunk closes), so no frame outgrows the channel's kMaxFrameLen
/// sanity cap however many sockets a dump carries. A dump that fits in one
/// chunk — the common case — is byte-for-byte the pre-chunking single frame.
class SockStateChunks {
 public:
  SockStateChunks(Buffer spare, std::size_t limit)
      : buf_(std::move(spare)), limit_(limit) {
    buf_.clear();
    open();
  }

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

  Buffer take() { return buf_.take(); }

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

obs::Tracer& tracer() { return obs::Tracer::instance(); }

/// Per-migration metrics, shared by source and destination roles. References
/// are stable for the process lifetime (the registry never evicts).
struct MigMetrics {
  obs::Counter& freeze_bytes;
  obs::Counter& precopy_bytes;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& restores;
  obs::Counter& stripe_segments;
  obs::Counter& stripe_bytes;
  obs::Histogram& freeze_time_us;
  obs::Histogram& total_time_us;
  obs::Histogram& precopy_rounds;

  static MigMetrics& get() {
    auto& reg = obs::Registry::instance();
    static MigMetrics m{
        reg.counter("mig.freeze_bytes"),
        reg.counter("mig.precopy_bytes"),
        reg.counter("mig.migrations_completed"),
        reg.counter("mig.migrations_failed"),
        reg.counter("mig.restores_completed"),
        reg.counter("mig.stripe_segments"),
        reg.counter("mig.stripe_bytes"),
        reg.histogram("mig.freeze_time_us", obs::default_latency_bounds_us()),
        reg.histogram("mig.total_time_us", obs::default_latency_bounds_us()),
        reg.histogram("mig.precopy_rounds", {1, 2, 4, 8, 16, 32, 64}),
    };
    return m;
  }
};

/// A stage's cost when its work shards across the migration's worker pool:
/// `cpu()` is the serial total the CPU meter pays (parallelism spreads work,
/// it does not shrink it), `elapsed()` the slowest shard, after which the
/// stage continues. With one worker the two are the same serial cost.
class ShardedCost {
 public:
  explicit ShardedCost(int workers) : workers_(static_cast<std::size_t>(workers)) {}

  /// `n` items of `ns_each`, dealt out in contiguous shards.
  void items(std::size_t n, std::int64_t ns_each) {
    cpu_ns_ += static_cast<std::int64_t>(n) * ns_each;
    elapsed_ns_ += static_cast<std::int64_t>(ckpt::DirtyTracker::max_shard(n, workers_)) * ns_each;
  }
  /// `n` bytes at `ns_per_byte`, split evenly.
  void bytes(double n, double ns_per_byte) {
    cpu_ns_ += static_cast<std::int64_t>(n * ns_per_byte);
    elapsed_ns_ += static_cast<std::int64_t>(n * ns_per_byte / static_cast<double>(workers_));
  }
  /// Work that does not shard.
  void serial(std::int64_t ns) {
    cpu_ns_ += ns;
    elapsed_ns_ += ns;
  }

  SimDuration cpu() const { return SimTime::nanoseconds(cpu_ns_); }
  SimDuration elapsed() const { return SimTime::nanoseconds(elapsed_ns_); }

 private:
  std::size_t workers_;
  std::int64_t cpu_ns_{0};
  std::int64_t elapsed_ns_{0};
};

/// What both session roles share: the owning daemon, its node, the
/// continuations that pay for kernel work, and span-handle closing.
template <class Self>
class Session : public std::enable_shared_from_this<Self> {
 protected:
  explicit Session(Migd& owner) : owner_(&owner), node_(&owner.node()) {}

  sim::Engine& engine() const { return node_->engine(); }
  const CostModel& cm() const { return owner_->cost_model(); }

  /// Spend `d` of (kernel/helper-thread) CPU, then continue.
  void after(SimDuration d, std::function<void()> fn) {
    after_parallel(d, d, std::move(fn));
  }

  /// Parallel stage: `cpu` of total work spread over the worker pool, whose
  /// slowest shard finishes after `elapsed`. The CPU meter is charged the full
  /// serial amount, the continuation runs at the makespan. With cpu ==
  /// elapsed this is the serial after().
  void after_parallel(SimDuration cpu, SimDuration elapsed, std::function<void()> fn) {
    node_->cpu().account(kKernelPid, cpu);
    engine().schedule_after(elapsed,
                            [self = this->shared_from_this(), fn = std::move(fn)] {
                              (void)self;
                              fn();
                            });
  }

  /// End a span handle if it is still open; zero the handle either way.
  static void close_span(obs::SpanId& id) {
    if (id != 0) tracer().end(id);
    id = 0;
  }

  Migd* owner_;
  proc::Node* node_;
};

}  // namespace

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
    if (dgram->data.size() != kTransdRequestBytes) {
      DVEMIG_WARN("transd", "%s dropped %zu-byte datagram", node_->name().c_str(),
                  dgram->data.size());
      continue;
    }
    BinaryReader r(dgram->data);
    const std::uint64_t req_id = r.u64();
    TranslationRule rule = TranslationRule::deserialize(r);
    if (rule.proto != net::IpProto::tcp && rule.proto != net::IpProto::udp) {
      DVEMIG_WARN("transd", "%s dropped request %llu for protocol %u",
                  node_->name().c_str(), static_cast<unsigned long long>(req_id),
                  static_cast<unsigned>(rule.proto));
      continue;
    }
    const net::Endpoint requester = dgram->from;
    // Installing the filter takes kernel work; the ack follows it.
    node_->engine().schedule_after(
        SimTime::nanoseconds(cm_.translation_install_ns),
        [this, rule, req_id, requester] {
          node_->cpu().account(kKernelPid,
                               SimTime::nanoseconds(cm_.translation_install_ns));
          translation_->install(rule, fix_dst_cache_);
          BinaryWriter ack;
          ack.u64(req_id);
          sock_->send_to(requester, ack.take());
        });
  }
}

// ==================================================================== sessions

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

  /// A fresh unified socket_state buffer on the recycled allocation.
  SockStateChunks open_dump() {
    return SockStateChunks(std::move(sock_spare_),
                           static_cast<std::size_t>(cm().socket_chunk_bytes));
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
  /// its wire bytes to `stat`; an empty dump sends nothing. The allocation
  /// goes back to sock_spare_ for the next dump.
  void send_dump(SockStateChunks& chunks, std::uint64_t& stat) {
    if (chunks.total_records() > 0) {
      chunks.finish();
      stat += chunks.wire_bytes();
      sock_spare_ = transport_->send(MsgType::socket_state, chunks.take(),
                                     chunks.starts());
    } else {
      sock_spare_ = chunks.take();
    }
    sock_spare_.clear();  // keep only the capacity
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
      BinaryWriter w;
      delta.serialize(w);
      transport_->send(MsgType::memory_delta, w.take());
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
      w.u64(req);
      rule.serialize(w);
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
      if (dgram->data.size() != kTransdAckBytes) {
        DVEMIG_WARN("migd", "pid %u dropped %zu-byte datagram on the translation "
                    "ack port", stats_.pid.value, dgram->data.size());
        continue;
      }
      BinaryReader r(dgram->data);
      const std::uint64_t req = r.u64();
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
    // back-patched before send. The allocation is recycled from the precopy
    // rounds, and full dumps pre-reserve so a 10^5-socket freeze never
    // reallocates mid-serialization.
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
      BinaryWriter wm;
      delta.serialize(wm);
      transport_->send(MsgType::memory_delta, wm.take());

      const ckpt::ProcessImage img = ckpt::snapshot_process(*proc_);
      BinaryWriter wi;
      img.serialize(wi);
      transport_->send(MsgType::process_image, wi.take());
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
  // Recycled allocation for the unified socket_state buffer: each precopy
  // round / freeze dump takes it, serializes in place, and puts the (cleared)
  // storage back once the transport has copied the frame out.
  Buffer sock_spare_;
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

// -------------------------------------------------------------- DestSession

class Migd::DestSession : public Session<Migd::DestSession> {
 public:
  DestSession(Migd& owner, stack::TcpSocket::Ptr conn)
      : Session(owner), sock_(std::move(conn)) {}

  /// One accepted connection's lifecycle, mirrored by the mig.receive span
  /// (mig.restore nested inside) on this node's migd.dst track:
  ///   open -> receiving (mig_begin) -> restoring (process_image)
  ///        -> resumed (process adopted, resume_done sent) -> retired,
  /// and any phase -> retired on failure. A stripe feeder goes straight from
  /// open to retired. Every write sits next to the span operation that
  /// covers the same instant (tools/lint_dvemig.py enforces the pairing).
  enum class Phase : std::uint8_t { open, receiving, restoring, resumed, retired };

  void begin() {
    channel_ = std::make_unique<FrameChannel>(sock_);
    channel_->set_on_frame(
        [self = shared_from_this()](MsgType t, BinaryReader& r) {
          self->on_frame(t, r);
        });
    // Malformed inbound frames: tell the source the migration is dead (mig_abort
    // is still sendable — only the receive side is poisoned), drop any armed
    // capture filters, and retire this session.
    channel_->set_on_error([self = shared_from_this()](const char* reason) {
      self->teardown(reason, /*notify_peer=*/true);
    });
    // A source that dies mid-migration (crash = RST, plain close = FIN before
    // resume_done) must not strand this session: armed capture filters would
    // keep stealing the process's packets with nobody left to reinject them.
    sock_->set_on_reset([self = shared_from_this()] {
      self->teardown("source connection reset", /*notify_peer=*/false);
    });
    // After resume the source's FIN is the normal end of the connection:
    // answer it at once, then retire.
    sock_->set_on_peer_closed([self = shared_from_this()] {
      if (self->phase_ == Phase::resumed) self->sock_->close();
      self->teardown("source closed before restore", /*notify_peer=*/false);
    });
  }

  /// Same cycle breaker as SourceSession::detach_callbacks(): the channel
  /// handlers and on_peer_closed capture shared_from_this(); a released
  /// session would otherwise pin itself (and the restored process image) in
  /// memory. Must not run inside one of those callbacks.
  void detach_callbacks() {
    if (channel_) {
      channel_->set_on_frame(nullptr);
      channel_->set_on_error(nullptr);
    }
    if (sock_) {
      sock_->set_on_peer_closed(nullptr);
      sock_->set_on_reset(nullptr);
    }
  }

 private:
  /// The migration is over on this side, committed or not: frames still in
  /// flight belong to a migration that no longer exists.
  bool ended() const { return phase_ == Phase::resumed || phase_ == Phase::retired; }

  /// The one way out of a session. Closes the spans (recording `error` on
  /// mig.receive first), retires, optionally answers mig_abort, and releases
  /// the session on a fresh event, since this runs inside channel and socket
  /// callbacks. The phase changes before the send because a fault-injected
  /// kill inside it re-enters teardown() synchronously.
  void retire(const char* error = nullptr, bool send_abort = false) {
    if (error != nullptr) tracer().attr(span_receive_, "error", error);
    close_span(span_restore_);
    close_span(span_receive_);
    phase_ = Phase::retired;
    if (send_abort) channel_->send(MsgType::mig_abort, Buffer{});
    engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
      // A no-op for feeders (capture session ids start at 1) and for
      // committed sessions (finish_session already erased theirs).
      self->owner_->capture_.abort_session(self->capture_session_);
      self->sock_->close();
      self->detach_callbacks();
      self->owner_->release_dest_session(self.get());
    });
  }

  /// Every failure and every end of the connection lands here. Idempotent:
  /// the abort, reset and peer-closed paths can all fire for one migration.
  void teardown(const char* why, bool notify_peer) {
    if (phase_ == Phase::retired) return;
    if (is_feeder_) {
      // A feeder owns no capture session or staged state, but its death
      // mid-migration (channel error, reset) dooms the main session's
      // transfer, so the main goes first. After the main resumed this is the
      // normal close path and the main retires quietly.
      DVEMIG_DEBUG("migd", "stripe feeder %u on %s retired: %s",
                   static_cast<unsigned>(stripe_index_), node_->name().c_str(),
                   why);
      if (auto main = owner_->find_dest_main(mig_id_)) {
        main->teardown("stripe channel lost", notify_peer);
      }
      return retire();
    }
    // Committed on this side (process adopted and running, captured packets
    // reinjected): a channel error or the source's close only ends the
    // connection; there is nothing to abort.
    if (phase_ == Phase::resumed) return retire();
    DVEMIG_WARN("migd", "dest session on %s torn down: %s",
                node_->name().c_str(), why);
    retire(why, notify_peer && (sock_->state() == stack::TcpState::established ||
                                sock_->state() == stack::TcpState::close_wait));
  }

  void on_frame(MsgType type, BinaryReader& r) {
    if (ended()) return;
    if (is_feeder_) return on_feeder_frame(type, r);
    if (type == MsgType::stripe_hello) {
      // A stripe channel's opening frame turns this session into a feeder: it
      // owns no migration state and forwards segments to the main session.
      if (phase_ != Phase::open) {
        teardown("stripe_hello on main channel", /*notify_peer=*/true);
        return;
      }
      if (r.remaining() < 9) {
        teardown("malformed stripe_hello", /*notify_peer=*/true);
        return;
      }
      mig_id_ = r.u64();
      stripe_index_ = r.u8();
      is_feeder_ = true;
      return;
    }
    if (type == MsgType::stripe_seg) {
      on_stripe_segment(r);
      return;
    }
    on_logical_frame(type, r);
  }

  /// Segments from any channel of this migration (the primary's arrive via
  /// on_frame, the feeders' are forwarded) meet in the reassembler.
  void on_stripe_segment(BinaryReader& r) {
    if (ended()) return;
    if (phase_ == Phase::open || !reasm_) {
      teardown("unexpected stripe segment", /*notify_peer=*/true);
      return;
    }
    reasm_->on_segment(r);
  }

  void on_feeder_frame(MsgType type, BinaryReader& r) {
    if (type != MsgType::stripe_seg) {
      teardown("unexpected frame on stripe channel", /*notify_peer=*/false);
      return;
    }
    auto main = owner_->find_dest_main(mig_id_);
    if (!main) {
      if (attached_once_) return;  // the migration already ended; late noise
      // Segments racing ahead of the primary channel's mig_begin (possible
      // under reordered delivery) park here until the main session appears.
      if (parked_segments_.size() >= kMaxParkedSegments) {
        teardown("stripe segment backlog before mig_begin", /*notify_peer=*/false);
        return;
      }
      const auto rest = r.span(r.remaining());
      parked_segments_.emplace_back(rest.begin(), rest.end());
      return;
    }
    attached_once_ = true;
    main->on_stripe_segment(r);
  }

  /// Replay segments parked before the main session's mig_begin arrived.
  void drain_parked(DestSession& main) {
    for (const Buffer& seg : parked_segments_) {
      BinaryReader r({seg.data(), seg.size()});
      main.on_stripe_segment(r);
      if (main.ended()) break;
    }
    parked_segments_.clear();
  }

  void on_logical_frame(MsgType type, BinaryReader& r) {
    if (ended()) return;
    // mig_begin opens the migration and mig_abort may end it at any point;
    // every other frame needs the session mig_begin sets up.
    if (phase_ == Phase::open && type != MsgType::mig_begin &&
        type != MsgType::mig_abort) {
      const std::string why = std::string(msg_type_name(type)) + " before mig_begin";
      teardown(why.c_str(), /*notify_peer=*/true);
      return;
    }
    switch (type) {
      case MsgType::mig_begin: {
        if (phase_ != Phase::open) {
          // A duplicated mig_begin must not re-arm: begin_session() again
          // would orphan the first capture session and every spec in it.
          teardown("duplicate mig_begin", /*notify_peer=*/true);
          return;
        }
        MigBegin begin;
        if (!get_payload(r, begin)) {
          teardown("malformed mig_begin", /*notify_peer=*/true);
          return;
        }
        obs_track_ = tracer().track(node_->name() + "/migd.dst");
        span_receive_ = tracer().begin(obs_track_, "mig.receive");
        phase_ = Phase::receiving;
        pid_ = begin.pid;
        src_local_ = begin.src_local;
        mig_id_ = begin.mig_id;
        stripe_count_ = std::max<int>(1, begin.stripe_count);
        tracer().attr(span_receive_, "pid", std::to_string(pid_.value));
        // The capture session must exist before any parked stripe segment is
        // replayed below — a parked capture_request would otherwise arm
        // against session 0.
        capture_session_ = owner_->capture_.begin_session();
        if (stripe_count_ > 1) {
          reasm_ = std::make_unique<StripeReassembler>(
              [this](MsgType t, BinaryReader& rr) {
                if (ended()) return;
                // Re-report the reassembled logical frame so the protocol
                // checker sees the same inbound stream as at degree 1.
                FrameChannel::notify_frame(*channel_, /*outbound=*/false, t,
                                           rr.remaining());
                on_logical_frame(t, rr);
              },
              [this](const char* reason) {
                teardown(reason, /*notify_peer=*/true);
              });
          // Stripe channels may have connected (and parked segments) before
          // this mig_begin crossed the primary channel.
          owner_->for_each_feeder(mig_id_, [this](DestSession& feeder) {
            feeder.attached_once_ = true;
            feeder.drain_parked(*this);
          });
        }
        return;
      }
      case MsgType::capture_request: {
        CaptureRequest req;
        if (!get_payload(r, req)) {
          teardown("malformed capture_request", /*notify_peer=*/true);
          return;
        }
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
                channel_->send(MsgType::capture_enabled, Buffer{});
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
        if (!ok || records != n) {
          teardown("malformed socket_state", /*notify_peer=*/true);
          return;
        }
        BinaryWriter w;
        w.u32(n);
        channel_->send(MsgType::socket_ack, std::move(w));
        return;
      }
      case MsgType::memory_delta: {
        ckpt::MemoryDelta delta;
        if (!get_payload(r, delta)) {
          teardown("malformed memory_delta", /*notify_peer=*/true);
          return;
        }
        pages_received_ += delta.dirty_pages.size();
        return;
      }
      case MsgType::process_image: {
        if (phase_ == Phase::restoring) {
          teardown("duplicate process_image", /*notify_peer=*/true);
          return;
        }
        if (!get_payload(r, img_)) {
          teardown("malformed process_image", /*notify_peer=*/true);
          return;
        }
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
        teardown("aborted by source", /*notify_peer=*/false);
        return;
      default:
        teardown("unexpected frame", /*notify_peer=*/true);
        return;
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
      if (!staged.complete()) {
        teardown("incomplete staged socket record", /*notify_peer=*/true);
        return;
      }
      by_fd[staged.proto == net::IpProto::tcp ? staged.tcp.fd : staged.udp.fd] =
          &staged;
    }
    for (const Fd fd : img_.socket_fds) {
      if (by_fd.find(fd) == by_fd.end()) {
        teardown("process image references a socket that was never staged",
                 /*notify_peer=*/true);
        return;
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
    MigMetrics::get().restores.add(1);

    // The source closes the connection once it has this, and the peer-closed
    // handler installed in begin() retires the session.
    BinaryWriter w;
    w.i64(engine().now().ns);
    w.u64(captured);
    w.u64(reinjected);
    const Buffer done_payload = w.take();
    channel_->send(MsgType::resume_done, done_payload);
    if (mutation() == ProtocolMutation::double_resume_done) {
      channel_->send(MsgType::resume_done, done_payload);
    }
  }

  stack::TcpSocket::Ptr sock_;
  std::unique_ptr<FrameChannel> channel_;

  Phase phase_{Phase::open};
  Pid pid_{};
  net::Ipv4Addr src_local_{};
  std::uint64_t capture_session_{0};

  SocketStaging staging_;
  std::uint64_t socket_bytes_{0};
  std::uint64_t pages_received_{0};
  ckpt::ProcessImage img_;
  std::uint32_t obs_track_{0};
  obs::SpanId span_receive_{0};
  obs::SpanId span_restore_{0};

  // --- striped transfer (a parallel source) ---
  std::uint64_t mig_id_{0};      // cluster-unique id binding stripes to a main
  int stripe_count_{1};          // source parallelism announced in mig_begin
  bool is_feeder_{false};        // this session is a secondary stripe channel
  std::uint8_t stripe_index_{0};
  bool attached_once_{false};    // feeder: segments flushed into the main once
  std::vector<Buffer> parked_segments_;  // feeder: segments before the main exists
  std::unique_ptr<StripeReassembler> reasm_;  // main: in-order frame reassembly
  static constexpr std::size_t kMaxParkedSegments = 4096;

  friend class Migd;
};

// ==================================================================== Migd

Migd::Migd(proc::Node& node, CostModel cm)
    : node_(&node),
      cm_(cm),
      capture_(node.stack()),
      translation_(node.stack()),
      transd_(node, translation_, cm) {}

Migd::~Migd() {
  // Sessions still parked here (a dest that saw mig_abort, or anything
  // mid-flight when the node goes down) hold themselves alive through their
  // shared_from_this() callback captures; break the cycles so dropping the
  // shared_ptrs below actually reclaims them.
  if (src_session_) src_session_->detach_callbacks();
  for (const auto& s : dst_sessions_) s->detach_callbacks();
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
    auto session = std::make_shared<DestSession>(*this, std::move(conn));
    dst_sessions_.push_back(session);
    session->begin();
  }
}

void Migd::release_dest_session(DestSession* session) {
  std::erase_if(dst_sessions_,
                [session](const auto& s) { return s.get() == session; });
}

std::shared_ptr<Migd::DestSession> Migd::find_dest_main(std::uint64_t mig_id) {
  if (mig_id == 0) return nullptr;
  for (const auto& s : dst_sessions_) {
    if (!s->is_feeder_ && s->mig_id_ == mig_id &&
        s->phase_ != DestSession::Phase::open &&
        s->phase_ != DestSession::Phase::retired) {
      return s;
    }
  }
  return nullptr;
}

void Migd::for_each_feeder(std::uint64_t mig_id,
                           const std::function<void(DestSession&)>& fn) {
  if (mig_id == 0) return;
  // Copy first: fn may mutate dst_sessions_ (e.g. by tearing a feeder down).
  std::vector<std::shared_ptr<DestSession>> feeders;
  for (const auto& s : dst_sessions_) {
    if (s->is_feeder_ && s->mig_id_ == mig_id &&
        s->phase_ != DestSession::Phase::retired) {
      feeders.push_back(s);
    }
  }
  for (const auto& f : feeders) fn(*f);
}

bool Migd::migrate(Pid pid, net::Ipv4Addr dest_local, SocketMigStrategy strategy,
                   DoneFn done) {
  return migrate(pid, dest_local, MigrateOptions{strategy, true}, std::move(done));
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
