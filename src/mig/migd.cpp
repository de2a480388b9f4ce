#include "src/mig/migd.hpp"

#include <algorithm>
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

/// Disable a socket for migration: unhash from the lookup tables, clear timers,
/// stop transmission (Section V-C: "unhashing it from both the ehash and bhash
/// kernel hashtables and clearing the retransmission timer").
void disable_socket(stack::NetStack& st, stack::Socket& sock) {
  if (sock.type() == stack::SocketType::tcp) {
    auto& tcp = static_cast<stack::TcpSocket&>(sock);
    tcp.clear_timers();
    if (tcp.hashed_established()) {
      st.table().ehash_remove(stack::FourTuple{tcp.local(), tcp.remote()});
      tcp.set_hashed_established(false);
    }
    if (tcp.hashed_bound()) {
      st.table().bhash_remove(tcp, tcp.local().port);
      tcp.set_hashed_bound(false);
    }
    for (const auto& child : tcp.accept_queue()) disable_socket(st, *child);
  } else {
    auto& udp = static_cast<stack::UdpSocket&>(sock);
    if (udp.cb().bound && !udp.migration_disabled()) {
      st.table().bhash_remove(udp, udp.local().port);
      // cb().bound stays true: it is part of the state image.
    }
  }
  sock.set_migration_disabled(true);
  st.dst_cache_drop(sock.sock_id());
}

/// Roll back disable_socket after a failed migration: rehash the socket and
/// re-arm its timers so the resumed process can keep using it. Without this
/// the abort path wakes the process with its sockets unhashed and every send
/// trips the migration_disabled precondition (found by dvemig-mc's crash
/// preset: drop a freeze-phase frame, let the destination abort, resume).
void enable_socket(stack::NetStack& st,
                   const std::shared_ptr<stack::Socket>& sock) {
  if (!sock->migration_disabled()) return;
  sock->set_migration_disabled(false);
  if (sock->type() == stack::SocketType::tcp) {
    auto tcp = std::static_pointer_cast<stack::TcpSocket>(sock);
    if (tcp->cb().state == stack::TcpState::listen) {
      if (!tcp->hashed_bound()) {
        st.table().bhash_insert(tcp, tcp->local().port);
        tcp->set_hashed_bound(true);
      }
      for (const auto& child : tcp->accept_queue()) enable_socket(st, child);
    } else {
      if (!tcp->hashed_established()) {
        st.table().ehash_insert(tcp,
                                stack::FourTuple{tcp->local(), tcp->remote()});
        tcp->set_hashed_established(true);
      }
      tcp->restart_timers_after_restore();
    }
  } else {
    auto& udp = static_cast<stack::UdpSocket&>(*sock);
    if (udp.cb().bound) st.table().bhash_insert(sock, udp.local().port);
  }
}

/// A TCP socket is skippable in a precopy round if the user currently holds it
/// (Section V-C1: "the socket tracking mechanism during the precopy phase simply
/// omits sockets that are locked or being used for fast-path receiving").
bool tcp_busy(const stack::TcpSocket& tcp) {
  const auto& cb = tcp.cb();
  return cb.user_locked || cb.blocked_reader || !cb.backlog.empty() ||
         !cb.prequeue.empty();
}

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

/// What both session roles share: the owning daemon, its node, and the
/// continuations that pay for kernel work.
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
    BinaryReader r(dgram->data);
    const std::uint64_t req_id = r.u64();
    TranslationRule rule = TranslationRule::deserialize(r);
    const net::Endpoint requester = dgram->from;
    // Installing the filter takes kernel work; the ack follows it.
    node_->engine().schedule_after(
        SimTime::nanoseconds(cm_.translation_install_ns),
        [this, rule, req_id, requester] {
          node_->cpu().account(kKernelPid,
                               SimTime::nanoseconds(cm_.translation_install_ns));
          translation_->install(rule, fix_dst_cache_);
          served_ += 1;
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

  /// End a span handle if it is still open; zero the handle either way.
  void close_span(obs::SpanId& id) {
    if (id != 0) tracer().end(id);
    id = 0;
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

  void fail(const std::string& why) {
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
      if (ms.sock->migration_disabled() &&
          ms.effective_remote != ms.orig_remote) {
        if (ms.sock->type() == stack::SocketType::tcp) {
          auto& tcp = static_cast<stack::TcpSocket&>(*ms.sock);
          tcp.set_endpoints(tcp.local(), ms.orig_remote);
        } else {
          auto& udp = static_cast<stack::UdpSocket&>(*ms.sock);
          udp.set_endpoints(udp.local(), ms.orig_remote, udp.cb().bound,
                            udp.cb().connected);
        }
      }
      enable_socket(node_->stack(), ms.sock);
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
    // stealing the process's packets forever.
    close_transport(/*abort=*/true);
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
    w.u32(stats_.pid.value);
    w.str(proc_->name());
    w.u8(static_cast<std::uint8_t>(stats_.strategy));
    w.u32(node_->local_addr().value);
    w.u64(mig_id_);
    w.u8(static_cast<std::uint8_t>(config_.parallelism));
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
        fail("aborted by destination");
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
            tcp_busy(static_cast<const stack::TcpSocket&>(*file.socket))) {
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

    after(SimTime::nanoseconds(cm().signal_roundtrip_ns), [this] {
      if (stats_.strategy == SocketMigStrategy::iterative) {
        iter_idx_ = 0;
        iterative_next();
      } else {
        collective_capture();
      }
    });
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

  void send_capture_request(const std::vector<CaptureSpec>& specs,
                            std::function<void()> then) {
    span_stage_ = tracer().begin(obs_track_, "mig.capture_arm");
    tracer().attr(span_stage_, "specs", std::to_string(specs.size()));
    BinaryWriter w;
    w.u32(static_cast<std::uint32_t>(specs.size()));
    for (const CaptureSpec& s : specs) s.serialize(w);
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
  void request_translations(const std::vector<const MigSocket*>& socks,
                            std::function<void()> then) {
    DVEMIG_ASSERT(pending_trans_ == 0);
    span_stage_ = tracer().begin(obs_track_, "mig.translate");
    on_trans_done_ = [this, then = std::move(then)] {
      close_span(span_stage_);
      then();
    };
    for (const MigSocket* ms : socks) {
      if (!ms->translatable) continue;
      TranslationRule rule;
      rule.proto = ms->sock->type() == stack::SocketType::tcp ? net::IpProto::tcp
                                                              : net::IpProto::udp;
      rule.peer_local = ms->effective_remote;
      rule.mig_old = ms->sock->local();
      rule.mig_new_addr = dest_;
      BinaryWriter w;
      const std::uint64_t req = ++next_trans_req_;
      w.u64(req);
      rule.serialize(w);
      pending_trans_ += 1;
      ctrl_->send_to(net::Endpoint{ms->effective_remote.addr, kTransdPort}, w.take());
    }
    if (pending_trans_ == 0 && on_trans_done_) {
      std::exchange(on_trans_done_, nullptr)();
    }
  }

  /// Disable the socket and, for peers that moved, retarget the socket's remote
  /// endpoint to the peer's current host before extraction.
  void disable_for_migration(const MigSocket& ms) {
    disable_socket(node_->stack(), *ms.sock);
    if (ms.effective_remote != ms.orig_remote) {
      if (ms.sock->type() == stack::SocketType::tcp) {
        static_cast<stack::TcpSocket&>(*ms.sock)
            .set_endpoints(ms.sock->local(), ms.effective_remote);
      } else {
        auto& udp = static_cast<stack::UdpSocket&>(*ms.sock);
        udp.set_endpoints(udp.local(), ms.effective_remote, udp.cb().bound,
                          udp.cb().connected);
      }
    }
  }

  void on_ctrl_readable() {
    while (auto dgram = ctrl_->recv()) {
      BinaryReader r(dgram->data);
      (void)r.u64();  // req id; acks are counted, not matched individually
      DVEMIG_ASSERT(pending_trans_ > 0);
      pending_trans_ -= 1;
      if (pending_trans_ == 0 && on_trans_done_) {
        std::exchange(on_trans_done_, nullptr)();
      }
    }
  }

  // Iterative: capture / translate / disable / subtract / dump / ack, one socket
  // at a time — the repeated computation/transmission interleaving the paper
  // identifies as the bottleneck.
  void iterative_next() {
    if (iter_idx_ == sockets_.size()) {
      final_transfer();
      return;
    }
    const std::size_t idx = iter_idx_;
    send_capture_request(specs_for(sockets_[idx]), [this, idx] {
      request_translations({&sockets_[idx]}, [this, idx] {
        const MigSocket& ms = sockets_[idx];
        disable_for_migration(ms);
        span_stage_ = tracer().begin(obs_track_, "mig.subtract");
        SockStateChunks chunks = open_dump();
        emit_socket(ms.fd, *ms.sock, chunks, /*force_all=*/true);
        after(cm().subtract_cost(1, chunks.record_bytes()),
              [this, chunks = std::move(chunks)]() mutable {
          close_span(span_stage_);
          on_socket_ack_ = [this] {
            iter_idx_ += 1;
            iterative_next();
          };
          send_dump(chunks, stats_.freeze_socket_bytes);
        });
      });
    });
  }

  // Collective (Section III-C three-phase): one capture request for everything,
  // one unified state buffer, one transfer.
  void collective_capture() {
    std::vector<CaptureSpec> all;
    for (const MigSocket& ms : sockets_) {
      for (CaptureSpec& s : specs_for(ms)) all.push_back(s);
    }
    DVEMIG_DEBUG("migd", "pid %u collective capture: %zu specs for %zu sockets",
                 stats_.pid.value, all.size(), sockets_.size());
    send_capture_request(all, [this] {
      std::vector<const MigSocket*> socks;
      for (const MigSocket& ms : sockets_) socks.push_back(&ms);
      DVEMIG_DEBUG("migd", "pid %u capture enabled; requesting translations",
                   stats_.pid.value);
      request_translations(socks, [this] { collective_subtract(); });
    });
  }

  void collective_subtract() {
    span_stage_ = tracer().begin(obs_track_, "mig.subtract");
    for (const MigSocket& ms : sockets_) disable_for_migration(ms);

    const bool force = stats_.strategy == SocketMigStrategy::collective;
    // The unified transfer buffer — the paper's "one buffer, one transfer"
    // collective design, literally: every socket serializes straight into it
    // (no per-socket intermediates), behind a record-count prefix that is
    // back-patched before send. The allocation is recycled from the precopy
    // rounds, and full dumps pre-reserve so a 10^5-socket freeze never
    // reallocates mid-serialization.
    SockStateChunks chunks = open_dump();
    if (force) {
      chunks.reserve(sizeof(std::uint32_t) +
                     sockets_.size() * kFullDumpReserveBytes);
    }
    // Per-socket record sizes, kept to price each worker's batch. The emit
    // itself stays serial in fd order — the unified buffer is byte-identical
    // at every degree; workers merely partition it.
    std::vector<std::size_t> record_bytes;
    record_bytes.reserve(sockets_.size());
    for (const MigSocket& ms : sockets_) {
      const std::size_t before = chunks.record_bytes();
      emit_socket(ms.fd, *ms.sock, chunks, force);
      record_bytes.push_back(chunks.record_bytes() - before);
    }
    const std::uint32_t records = chunks.total_records();
    const std::size_t subtract_bytes = chunks.record_bytes();

    const auto batch_cost = [&](std::size_t n_socks, std::size_t n_bytes) {
      // Incremental tracking already paid the per-socket walk during precopy;
      // the freeze-phase check is a cheap hash compare per socket.
      return force ? cm().subtract_cost(n_socks, n_bytes)
                   : SimTime::nanoseconds(
                         static_cast<std::int64_t>(n_socks) *
                             cm().socket_delta_check_ns +
                         static_cast<std::int64_t>(static_cast<double>(n_bytes) *
                                                   cm().per_byte_subtract_ns));
    };
    // Workers subtract contiguous fd-order batches; the merge into the
    // unified buffer preserves that order. Elapsed = slowest batch.
    SimDuration elapsed = SimTime::zero();
    for (const auto& shard : ckpt::DirtyTracker::shard_ranges(
             sockets_.size(), static_cast<std::size_t>(config_.parallelism))) {
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
    after_parallel(batch_cost(sockets_.size(), subtract_bytes), elapsed,
                   [this, chunks = std::move(chunks)]() mutable {
      close_span(span_stage_);
      send_dump(chunks, stats_.freeze_socket_bytes);
      final_transfer();
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
  std::size_t iter_idx_{0};
  int pending_trans_{0};
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
    sock_->set_on_peer_closed([self = shared_from_this()] {
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
  /// Common failure teardown: drop armed capture filters, optionally tell the
  /// peer, close and retire the session. Idempotent — the abort, reset and
  /// peer-closed paths can all fire for the same dead migration. The release
  /// is deferred one event because this runs inside channel/socket callbacks.
  void teardown(const char* why, bool notify_peer) {
    if (tearing_down_) return;
    if (is_feeder_) {
      // A stripe feeder owns no capture session or staged state; retire
      // quietly. But a feeder dying mid-migration (channel error, reset) dooms
      // the main session's transfer — propagate before retiring. After the
      // main session resumed (or already died) this is the normal close path.
      tearing_down_ = true;
      DVEMIG_DEBUG("migd", "stripe feeder %u on %s retired: %s",
                   static_cast<unsigned>(stripe_index_), node_->name().c_str(),
                   why);
      if (auto main = owner_->find_dest_main(mig_id_)) {
        main->teardown("stripe channel lost", notify_peer);
      }
      engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
        self->sock_->close();
        self->detach_callbacks();
        self->owner_->release_dest_session(self.get());
      });
      return;
    }
    if (resumed_) {
      // The migration is already committed on this side — the process is
      // adopted and running, captured packets reinjected. A channel error now
      // (source crash after resume_done, or this daemon's own send failing)
      // only means the graceful peer-closed handshake will never happen, so
      // retire the session quietly instead of aborting anything.
      tearing_down_ = true;
      engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
        self->sock_->close();
        self->detach_callbacks();
        self->owner_->release_dest_session(self.get());
      });
      return;
    }
    tearing_down_ = true;
    DVEMIG_WARN("migd", "dest session on %s torn down: %s",
                node_->name().c_str(), why);
    if (notify_peer && (sock_->state() == stack::TcpState::established ||
                        sock_->state() == stack::TcpState::close_wait)) {
      channel_->send(MsgType::mig_abort, Buffer{});
    }
    engine().schedule_after(SimTime::zero(), [self = shared_from_this()] {
      self->owner_->capture_.abort_session(self->capture_session_);
      self->sock_->close();
      self->detach_callbacks();
      self->owner_->release_dest_session(self.get());
    });
  }

  void on_frame(MsgType type, BinaryReader& r) {
    // A retired (or retiring) session can still see frames already in flight;
    // they belong to a migration that no longer exists.
    if (tearing_down_ || resumed_) return;
    if (is_feeder_) return on_feeder_frame(type, r);
    if (type == MsgType::stripe_hello) {
      // A stripe channel's opening frame turns this session into a feeder: it
      // owns no migration state and forwards segments to the main session.
      if (begun_) {
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
    if (tearing_down_ || resumed_) return;
    if (!begun_ || !reasm_) {
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
      if (main.tearing_down_) break;
    }
    parked_segments_.clear();
  }

  void on_logical_frame(MsgType type, BinaryReader& r) {
    if (tearing_down_ || resumed_) return;
    switch (type) {
      case MsgType::mig_begin: {
        if (begun_) {
          // A duplicated mig_begin must not re-arm: begin_session() again
          // would orphan the first capture session and every spec in it.
          teardown("duplicate mig_begin", /*notify_peer=*/true);
          return;
        }
        begun_ = true;
        pid_ = Pid{r.u32()};
        (void)r.str();  // process name
        (void)r.u8();   // socket strategy
        src_local_.value = r.u32();
        if (r.remaining() >= 9) {
          mig_id_ = r.u64();
          stripe_count_ = std::max<int>(1, r.u8());
        }
        // The capture session must exist before any parked stripe segment is
        // replayed below — a parked capture_request would otherwise arm
        // against session 0.
        capture_session_ = owner_->capture_.begin_session();
        if (stripe_count_ > 1) {
          reasm_ = std::make_unique<StripeReassembler>(
              [this](MsgType t, BinaryReader& rr) {
                if (tearing_down_ || resumed_) return;
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
        if (!begun_) {
          teardown("capture_request before mig_begin", /*notify_peer=*/true);
          return;
        }
        const std::uint32_t n = r.u32();
        DVEMIG_EXPECTS(n <= r.remaining());  // each spec consumes >= 1 byte
        std::vector<CaptureSpec> specs;
        specs.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          specs.push_back(CaptureSpec::deserialize(r));
        }
        DVEMIG_DEBUG("migd", "pid %u dest: capture_request with %u specs", pid_.value, n);
        after(SimTime::nanoseconds(static_cast<std::int64_t>(n) *
                                   cm().capture_install_ns),
              [this, specs = std::move(specs)] {
                // An abort can land while the filters are being installed;
                // arming against the already-dropped session would crash.
                if (tearing_down_) return;
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
        if (!begun_) {
          teardown("socket_state before mig_begin", /*notify_peer=*/true);
          return;
        }
        socket_bytes_ += r.remaining() + 1;
        const std::uint32_t n = r.u32();
        (void)n;
        while (!r.at_end()) read_socket_record(r, staging_);
        BinaryWriter w;
        w.u32(n);
        channel_->send(MsgType::socket_ack, std::move(w));
        return;
      }
      case MsgType::memory_delta: {
        if (!begun_) {
          teardown("memory_delta before mig_begin", /*notify_peer=*/true);
          return;
        }
        const ckpt::MemoryDelta delta = ckpt::MemoryDelta::deserialize(r);
        pages_received_ += delta.dirty_pages.size();
        return;
      }
      case MsgType::process_image: {
        if (!begun_ || restore_pending_) {
          teardown(restore_pending_ ? "duplicate process_image"
                                    : "process_image before mig_begin",
                   /*notify_peer=*/true);
          return;
        }
        restore_pending_ = true;
        img_ = ckpt::ProcessImage::deserialize(r);
        span_restore_ = tracer().begin(
            tracer().track(node_->name() + "/migd.dst"), "mig.restore");
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
    if (tearing_down_) return;
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
    tracer().end(span_restore_);
    span_restore_ = 0;
    MigMetrics::get().restores.add(1);
    resumed_ = true;

    BinaryWriter w;
    w.i64(engine().now().ns);
    w.u64(captured);
    w.u64(reinjected);
    const Buffer done_payload = w.take();
    channel_->send(MsgType::resume_done, done_payload);
    if (mutation() == ProtocolMutation::double_resume_done) {
      channel_->send(MsgType::resume_done, done_payload);
    }

    // Let the peer close first; drop our reference afterwards. The detach is
    // deferred one event because this handler is itself one of the callbacks
    // detach_callbacks() clears.
    sock_->set_on_peer_closed([self = shared_from_this()] {
      if (self->tearing_down_) return;
      self->tearing_down_ = true;
      self->sock_->close();
      self->engine().schedule_after(SimTime::zero(), [self] {
        self->detach_callbacks();
        self->owner_->release_dest_session(self.get());
      });
    });
  }

  stack::TcpSocket::Ptr sock_;
  std::unique_ptr<FrameChannel> channel_;

  Pid pid_{};
  net::Ipv4Addr src_local_{};
  std::uint64_t capture_session_{0};
  bool begun_{false};           // mig_begin received
  bool restore_pending_{false};  // process_image received, restore scheduled
  bool resumed_{false};          // restore complete, resume_done sent
  bool tearing_down_{false};     // failure teardown scheduled

  SocketStaging staging_;
  std::uint64_t socket_bytes_{0};
  std::uint64_t pages_received_{0};
  ckpt::ProcessImage img_;
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
    if (!s->is_feeder_ && s->begun_ && s->mig_id_ == mig_id &&
        !s->tearing_down_) {
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
    if (s->is_feeder_ && s->mig_id_ == mig_id && !s->tearing_down_) {
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
