#include "src/dve/zone_server.hpp"

#include <algorithm>

#include "src/common/log.hpp"
#include "src/dve/database.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig::dve {

void ZoneServerApp::register_kind() {
  if (proc::AppLogic::is_registered(kKind)) return;
  proc::AppLogic::register_kind(kKind, [](BinaryReader& r) { return deserialize(r); });
}

std::shared_ptr<proc::Process> ZoneServerApp::launch(proc::Node& node,
                                                     ZoneServerConfig cfg) {
  register_kind();
  auto proc = node.spawn("zone_" + std::to_string(cfg.zone));
  for (std::uint32_t i = 0; i < cfg.worker_threads; ++i) proc->add_thread();

  auto& mem = proc->mem();
  mem.mmap(cfg.code_bytes, proc::prot_read | proc::prot_exec, "zone_server",
           /*file_backed=*/true);
  mem.mmap(cfg.libs_bytes, proc::prot_read | proc::prot_exec, "libs",
           /*file_backed=*/true);
  mem.mmap(cfg.heap_bytes, proc::prot_read | proc::prot_write, "[heap]");
  mem.mmap(cfg.stack_bytes, proc::prot_read | proc::prot_write, "[stack]");
  proc->files().open_file("/var/log/zone_" + std::to_string(cfg.zone) + ".log");

  auto app = std::make_shared<ZoneServerApp>(cfg);

  auto listener = node.stack().make_tcp();
  listener->bind(node.public_addr(), zone_port(cfg.zone));
  listener->listen(512);
  app->listener_fd_ = proc->files().attach_socket(listener);

  if (cfg.use_db) {
    auto db = node.stack().make_tcp();
    db->bind(node.local_addr(), 0);
    db->connect(net::Endpoint{cfg.db_addr, kDbPort});
    app->db_fd_ = proc->files().attach_socket(db);
  }

  proc->set_app(app);
  app->start(*proc);
  return proc;
}

void ZoneServerApp::serialize(BinaryWriter& w) const { put(w, *this); }

std::shared_ptr<proc::AppLogic> ZoneServerApp::deserialize(BinaryReader& r) {
  auto app = std::make_shared<ZoneServerApp>(ZoneServerConfig{});
  get(r, *app);
  return app;
}

stack::TcpSocket& ZoneServerApp::tcp_at(Fd fd) const {
  const proc::OpenFile& file = proc_->files().get(fd);
  DVEMIG_ASSERT(file.kind == proc::FileKind::socket);
  return static_cast<stack::TcpSocket&>(*file.socket);
}

void ZoneServerApp::start(proc::Process& proc) {
  proc_ = &proc;

  // (Re)attach socket callbacks by fd — the same code path serves first launch
  // and post-migration resume, where the fds map to freshly restored sockets.
  tcp_at(listener_fd_).set_on_accept_ready([this] { on_accept_ready(); });
  if (db_fd_ >= 0) {
    tcp_at(db_fd_).set_on_readable([this] { on_db_readable(); });
  }
  ready_.clear();
  for (const Fd fd : client_fds_) adopt_client(fd);
  // A client that left while the process was frozen found drop_client()
  // refusing to run; reap it now. Collected first: dropping edits client_fds_.
  std::vector<Fd> gone;
  for (const Fd fd : client_fds_) {
    const stack::TcpState state = tcp_at(fd).state();
    if (state == stack::TcpState::close_wait || state == stack::TcpState::closed) {
      gone.push_back(fd);
    }
  }
  for (const Fd fd : gone) drop_client(fd);

  // Resume the real-time loop where it left off (catch-up after a freeze).
  sim::Engine& engine = proc.node().engine();
  const SimTime tick_due = next_tick_at_ns_ >= 0
                               ? std::max(engine.now(), SimTime{next_tick_at_ns_})
                               : engine.now() + cfg_.tick;
  next_tick_at_ns_ = tick_due.ns;
  tick_timer_ = engine.schedule_at(tick_due, [this] { tick(); });
  if (db_fd_ >= 0) {
    const SimTime db_due = next_db_at_ns_ >= 0
                               ? std::max(engine.now(), SimTime{next_db_at_ns_})
                               : engine.now() + cfg_.db_update_period;
    next_db_at_ns_ = db_due.ns;
    db_timer_ = engine.schedule_at(db_due, [this] { db_update(); });
  }
  on_accept_ready();   // connections may have completed while frozen
  on_db_readable();    // reinjected DB responses may already be readable
}

void ZoneServerApp::stop() {
  tick_timer_.cancel();
  db_timer_.cancel();
}

void ZoneServerApp::on_accept_ready() {
  if (proc_ == nullptr || proc_->frozen()) return;
  while (auto conn = tcp_at(listener_fd_).accept()) {
    const Fd fd = proc_->files().attach_socket(conn);
    client_fds_.push_back(fd);
    adopt_client(fd);
  }
}

void ZoneServerApp::adopt_client(Fd fd) {
  stack::TcpSocket& sock = tcp_at(fd);
  sock.set_on_peer_closed([this, fd] { drop_client(fd); });
  sock.set_on_reset([this, fd] { drop_client(fd); });
  sock.set_on_readable([this, fd] { mark_ready(fd); });
  const auto slot = static_cast<std::size_t>(fd);
  if (slots_.size() <= slot) slots_.resize(slot + 1);
  slots_[slot] = ClientSlot{next_adopt_seq_++, false};
  // Bytes may already be queued: on a child whose data arrived before it was
  // accepted, or on a socket restored by migration.
  if (sock.bytes_available() > 0) mark_ready(fd);
}

void ZoneServerApp::mark_ready(Fd fd) {
  ClientSlot& slot = slots_[static_cast<std::size_t>(fd)];
  if (slot.ready) return;
  slot.ready = true;
  ready_.push_back(fd);
}

void ZoneServerApp::drop_client(Fd fd) {
  if (proc_ == nullptr || proc_->frozen()) return;
  const auto it = std::find(client_fds_.begin(), client_fds_.end(), fd);
  if (it == client_fds_.end()) return;
  client_fds_.erase(it);
  std::erase(ready_, fd);  // data and FIN often arrive together
  tcp_at(fd).close();
  proc_->files().close(fd);
}

void ZoneServerApp::tick() {
  if (proc_ == nullptr || proc_->frozen()) return;
  ticks_ += 1;
  const double n = static_cast<double>(client_fds_.size());

  // The real-time loop: process client events, govern interactions, respond
  // state updates — CPU grows proportionally with the clients in the zone.
  const double cores = cfg_.base_cores + cfg_.per_client_cores * n;
  proc_->account_cpu(SimTime::nanoseconds(
      static_cast<std::int64_t>(cores * static_cast<double>(cfg_.tick.ns))));
  proc_->mem().touch_random(proc_->rng(),
                            cfg_.pages_per_tick + client_fds_.size() / 32);

  if (cfg_.active_updates) {
    update_seq_ += 1;
    for (const Fd fd : client_fds_) {
      stack::TcpSocket& sock = tcp_at(fd);
      if (sock.state() != stack::TcpState::established) continue;
      // Drain whatever the client sent since the last tick (the "events").
      sock.lock_user();  // the app is inside a recv/send syscall pair
      (void)sock.read_bytes();
      socket_reads_.get().add(1);
      BinaryWriter w;
      w.reserve(cfg_.update_bytes);
      w.u32(static_cast<std::uint32_t>(cfg_.update_bytes - 4));
      w.u32(update_seq_);
      w.repeat(cfg_.update_bytes - 8, 0x5A);
      sock.send(w.take());
      sock.unlock_user();
      updates_sent_ += 1;
    }
    for (const Fd fd : ready_) slots_[static_cast<std::size_t>(fd)].ready = false;
    ready_.clear();
  } else {
    // Drain only the clients that received data, in client_fds_ order: a read
    // that reopens a pinched receive window sends a window-update ACK.
    std::sort(ready_.begin(), ready_.end(), [this](Fd a, Fd b) {
      return slots_[static_cast<std::size_t>(a)].adopt_seq <
             slots_[static_cast<std::size_t>(b)].adopt_seq;
    });
    for (const Fd fd : ready_) {
      slots_[static_cast<std::size_t>(fd)].ready = false;
      (void)tcp_at(fd).read_bytes();
    }
    socket_reads_.get().add(ready_.size());
    ready_.clear();
  }

  next_tick_at_ns_ = (proc_->node().engine().now() + cfg_.tick).ns;
  tick_timer_ = proc_->node().engine().schedule_after(cfg_.tick, [this] { tick(); });
}

void ZoneServerApp::db_update() {
  if (proc_ == nullptr || proc_->frozen()) return;
  stack::TcpSocket& db = tcp_at(db_fd_);
  if (db.state() == stack::TcpState::established ||
      db.state() == stack::TcpState::syn_sent) {
    BinaryWriter w;
    w.reserve(4 + cfg_.db_query_bytes);
    w.u32(static_cast<std::uint32_t>(cfg_.db_query_bytes));
    w.repeat(cfg_.db_query_bytes, 0x51);
    db.send(w.take());
    db_queries_sent_ += 1;
  }
  next_db_at_ns_ = (proc_->node().engine().now() + cfg_.db_update_period).ns;
  db_timer_ = proc_->node().engine().schedule_after(cfg_.db_update_period,
                                                    [this] { db_update(); });
}

void ZoneServerApp::on_db_readable() {
  if (proc_ == nullptr || proc_->frozen() || db_fd_ < 0) return;
  db_rx_.append(tcp_at(db_fd_).read_bytes());
  cut_messages(db_rx_, [this](Bytes&&) {
    db_responses_ += 1;
    return true;
  });
}

}  // namespace dvemig::dve
