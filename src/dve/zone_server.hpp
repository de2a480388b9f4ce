// Zone server process (Section VI-C): manages one zone of the virtual space.
//
// Real-time loop at 20 Hz; CPU consumption grows proportionally with the number of
// connected clients; maintains a listening TCP socket on the zone's well-known
// port (shared public IP), one TCP connection per client, and a MySQL session with
// the database server over the cluster network. Fully migratable: its logical
// state serializes into the checkpoint image and its sockets take the socket
// migration path, so clients and the DB session survive a node change untouched.
//
// Client events are found epoll-style: each client socket's readable callback
// puts its fd on a ready list, and the passive tick drains only those fds.
#pragma once

#include <memory>
#include <vector>

#include "src/dve/zone.hpp"
#include "src/obs/metrics.hpp"
#include "src/proc/node.hpp"

namespace dvemig::dve {

struct ZoneServerConfig {
  ZoneId zone{0};
  SimDuration tick{SimTime::milliseconds(50)};  // 20 updates/s (Quake III default)
  std::size_t update_bytes{256};                // MMPOG average (Section VI-C)
  double base_cores{0.008};
  double per_client_cores{0.0007};
  // Worker threads beyond the main loop (AI, persistence flusher, ...). The
  // checkpoint's freeze phase synchronises all of them on the barrier and
  // transfers each thread's context (Figure 3).
  std::uint32_t worker_threads{2};
  bool active_updates{false};  // push updates to every client each tick
  // Memory footprint (heap dominates the precopy transfer).
  std::uint64_t heap_bytes{12ull << 20};
  std::uint64_t code_bytes{2ull << 20};
  std::uint64_t libs_bytes{4ull << 20};
  std::uint64_t stack_bytes{256ull << 10};
  std::uint64_t pages_per_tick{4};  // dirtying rate floor; grows with clients
  // Database session.
  bool use_db{true};
  net::Ipv4Addr db_addr{};
  SimDuration db_update_period{SimTime::seconds(1)};
  std::size_t db_query_bytes{160};
};

class ZoneServerApp final : public proc::AppLogic {
 public:
  static constexpr const char* kKind = "zone_server";

  explicit ZoneServerApp(ZoneServerConfig cfg) : cfg_(cfg) {}

  /// Create the process on `node`: address space, listener, DB session, app.
  static std::shared_ptr<proc::Process> launch(proc::Node& node,
                                               ZoneServerConfig cfg);

  /// Idempotently register the restore factory (also done by launch()).
  static void register_kind();

  // AppLogic interface.
  std::string kind() const override { return kKind; }
  void serialize(BinaryWriter& w) const override;
  void start(proc::Process& proc) override;
  void stop() override;

  // The checkpointed state (src/common/serial.hpp); the ready list is not in it.
  template <class Io, class Self>
  static void fields(Io& io, Self& app) {
    auto& cfg = app.cfg_;
    io.u32(cfg.zone);
    io.i64(cfg.tick.ns);
    io.u32(cfg.update_bytes);
    io.f64(cfg.base_cores);
    io.f64(cfg.per_client_cores);
    io.u32(cfg.worker_threads);
    io.boolean(cfg.active_updates);
    io.u64(cfg.pages_per_tick);
    io.boolean(cfg.use_db);
    io.u32(cfg.db_addr.value);
    io.i64(cfg.db_update_period.ns);
    io.u32(cfg.db_query_bytes);
    io.i32(app.listener_fd_);
    io.i32(app.db_fd_);
    io.seq(app.client_fds_, [](Io& fio, auto& fd) { fio.i32(fd); });
    io.u32(app.update_seq_);
    io.u64(app.updates_sent_);
    io.u64(app.db_queries_sent_);
    io.u64(app.db_responses_);
    io.u64(app.ticks_);
    io.blob(app.db_rx_);
    io.i64(app.next_tick_at_ns_);
    io.i64(app.next_db_at_ns_);
  }

  const ZoneServerConfig& config() const { return cfg_; }
  std::size_t client_count() const { return client_fds_.size(); }
  std::uint64_t updates_sent() const { return updates_sent_; }
  std::uint64_t db_queries_sent() const { return db_queries_sent_; }
  std::uint64_t db_responses() const { return db_responses_; }
  std::uint64_t ticks() const { return ticks_; }
  Fd listener_fd() const { return listener_fd_; }
  Fd db_fd() const { return db_fd_; }

 private:
  static std::shared_ptr<proc::AppLogic> deserialize(BinaryReader& r);

  void tick();
  void db_update();
  void on_accept_ready();
  void on_db_readable();
  void adopt_client(Fd fd);
  void drop_client(Fd fd);
  void mark_ready(Fd fd);
  stack::TcpSocket& tcp_at(Fd fd) const;

  ZoneServerConfig cfg_;
  proc::Process* proc_{nullptr};

  Fd listener_fd_{-1};
  Fd db_fd_{-1};
  std::vector<Fd> client_fds_;

  // Ready list, rebuilt by start() and never serialized. `adopt_seq` orders a
  // drain exactly as client_fds_ does (that vector only appends and erases).
  struct ClientSlot {
    std::uint32_t adopt_seq{0};
    bool ready{false};
  };
  std::vector<ClientSlot> slots_;  // indexed by fd
  std::vector<Fd> ready_;          // fds with data delivered since the last drain
  std::uint32_t next_adopt_seq_{0};
  obs::CounterRef socket_reads_{"dve.socket_reads"};  // socket reads made by tick()

  sim::TimerHandle tick_timer_;
  sim::TimerHandle db_timer_;

  std::uint32_t update_seq_{0};
  std::uint64_t updates_sent_{0};
  std::uint64_t db_queries_sent_{0};
  std::uint64_t db_responses_{0};
  std::uint64_t ticks_{0};
  Bytes db_rx_;  // partial DB responses across reads (and across migrations)
  // Absolute deadlines of the next tick / DB update, carried across migration so
  // the real-time loop catches up after a freeze instead of re-arming from zero.
  std::int64_t next_tick_at_ns_{-1};
  std::int64_t next_db_at_ns_{-1};
};

}  // namespace dvemig::dve
