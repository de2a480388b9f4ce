#include "src/dve/game_server.hpp"

#include <algorithm>

namespace dvemig::dve {

void GameServerApp::register_kind() {
  if (proc::AppLogic::is_registered(kKind)) return;
  proc::AppLogic::register_kind(kKind, [](BinaryReader& r) { return deserialize(r); });
}

std::shared_ptr<proc::Process> GameServerApp::launch(proc::Node& node,
                                                     GameServerConfig cfg) {
  register_kind();
  auto proc = node.spawn("openarena");

  auto& mem = proc->mem();
  mem.mmap(cfg.code_bytes, proc::prot_read | proc::prot_exec, "ioq3ded",
           /*file_backed=*/true);
  mem.mmap(cfg.heap_bytes, proc::prot_read | proc::prot_write, "[heap]");
  mem.mmap(512 << 10, proc::prot_read | proc::prot_write, "[stack]");

  auto app = std::make_shared<GameServerApp>(cfg);
  auto sock = node.stack().make_udp();
  sock->bind(node.public_addr(), cfg.port);
  app->sock_fd_ = proc->files().attach_socket(sock);

  proc->set_app(app);
  app->start(*proc);
  return proc;
}

void GameServerApp::serialize(BinaryWriter& w) const { put(w, *this); }

std::shared_ptr<proc::AppLogic> GameServerApp::deserialize(BinaryReader& r) {
  auto app = std::make_shared<GameServerApp>(GameServerConfig{});
  get(r, *app);
  return app;
}

stack::UdpSocket& GameServerApp::udp() const {
  const proc::OpenFile& file = proc_->files().get(sock_fd_);
  DVEMIG_ASSERT(file.kind == proc::FileKind::socket);
  return static_cast<stack::UdpSocket&>(*file.socket);
}

void GameServerApp::start(proc::Process& proc) {
  proc_ = &proc;
  udp().set_on_readable([this] { on_readable(); });
  // Resume the real-time loop where it left off: a frame that came due during
  // the freeze fires immediately (catch-up), preserving the update cadence.
  sim::Engine& engine = proc.node().engine();
  const SimTime due = next_tick_at_ns_ >= 0
                          ? std::max(engine.now(), SimTime{next_tick_at_ns_})
                          : engine.now() + cfg_.tick;
  next_tick_at_ns_ = due.ns;
  tick_timer_ = engine.schedule_at(due, [this] { tick(); });
  on_readable();  // reinjected client commands may already be queued
}

void GameServerApp::stop() { tick_timer_.cancel(); }

void GameServerApp::on_readable() {
  if (proc_ == nullptr || proc_->frozen()) return;
  while (auto dgram = udp().recv()) {
    const auto it = std::find_if(clients_.begin(), clients_.end(), [&](const auto& c) {
      return c.endpoint == dgram->from;
    });
    const std::int64_t now = proc_->node().engine().now().ns;
    if (it == clients_.end()) {
      clients_.push_back(ClientEntry{dgram->from, now});
    } else {
      it->last_seen_ns = now;
    }
  }
}

void GameServerApp::tick() {
  if (proc_ == nullptr || proc_->frozen()) return;
  const std::int64_t now = proc_->node().engine().now().ns;
  std::erase_if(clients_, [&](const ClientEntry& c) {
    return now - c.last_seen_ns > cfg_.client_timeout.ns;
  });

  const double cores =
      cfg_.base_cores + cfg_.per_client_cores * static_cast<double>(clients_.size());
  proc_->account_cpu(SimTime::nanoseconds(
      static_cast<std::int64_t>(cores * static_cast<double>(cfg_.tick.ns))));
  proc_->mem().touch_random(proc_->rng(), cfg_.pages_per_tick);

  snapshot_seq_ += 1;
  for (const ClientEntry& c : clients_) {
    BinaryWriter w;
    w.reserve(cfg_.snapshot_bytes);
    w.u32(snapshot_seq_);
    w.repeat(cfg_.snapshot_bytes - 4, 0x3C);
    udp().send_to(c.endpoint, w.take());
    snapshots_sent_ += 1;
  }
  next_tick_at_ns_ = (proc_->node().engine().now() + cfg_.tick).ns;
  tick_timer_ = proc_->node().engine().schedule_after(cfg_.tick, [this] { tick(); });
}

}  // namespace dvemig::dve
