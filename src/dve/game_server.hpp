// OpenArena-style FPS server (Section VI-B): UDP, 20 server frames per second,
// ~256-byte snapshots to every connected client. Used by the Figure 4 experiment:
// live-migrate the server mid-game and measure the packet-level delay.
#pragma once

#include <memory>
#include <vector>

#include "src/dve/zone.hpp"
#include "src/proc/node.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::dve {

struct GameServerConfig {
  net::Port port{27960};  // Quake III default
  SimDuration tick{SimTime::milliseconds(50)};  // 20 updates/s
  std::size_t snapshot_bytes{256};
  double base_cores{0.05};
  double per_client_cores{0.01};
  std::uint64_t heap_bytes{24ull << 20};
  std::uint64_t code_bytes{4ull << 20};
  // A game frame touches a large slice of the entity/world working set
  // (~2.7 MiB per 50 ms frame, ~55 MB/s) — this is what makes the paper's final
  // freeze transfer, and thus its ~20 ms downtime, non-trivial.
  std::uint64_t pages_per_tick{700};
  SimDuration client_timeout{SimTime::seconds(5)};
};

class GameServerApp final : public proc::AppLogic {
 public:
  static constexpr const char* kKind = "game_server";

  explicit GameServerApp(GameServerConfig cfg) : cfg_(cfg) {}

  static std::shared_ptr<proc::Process> launch(proc::Node& node,
                                               GameServerConfig cfg);
  static void register_kind();

  std::string kind() const override { return kKind; }
  void serialize(BinaryWriter& w) const override;
  void start(proc::Process& proc) override;
  void stop() override;

  // The checkpointed state (src/common/serial.hpp).
  template <class Io, class Self>
  static void fields(Io& io, Self& app) {
    auto& cfg = app.cfg_;
    io.u16(cfg.port);
    io.i64(cfg.tick.ns);
    io.u32(cfg.snapshot_bytes);
    io.f64(cfg.base_cores);
    io.f64(cfg.per_client_cores);
    io.u64(cfg.pages_per_tick);
    io.i64(cfg.client_timeout.ns);
    io.i32(app.sock_fd_);
    io.seq(app.clients_);
    io.u32(app.snapshot_seq_);
    io.u64(app.snapshots_sent_);
    io.i64(app.next_tick_at_ns_);
  }

  std::size_t client_count() const { return clients_.size(); }
  std::uint64_t snapshots_sent() const { return snapshots_sent_; }
  std::uint32_t snapshot_seq() const { return snapshot_seq_; }

 private:
  struct ClientEntry {
    net::Endpoint endpoint{};
    std::int64_t last_seen_ns{0};

    template <class Io, class Self>
    static void fields(Io& io, Self& c) {
      io.rec(c.endpoint);
      io.i64(c.last_seen_ns);
    }
  };

  static std::shared_ptr<proc::AppLogic> deserialize(BinaryReader& r);
  void tick();
  void on_readable();
  stack::UdpSocket& udp() const;

  GameServerConfig cfg_;
  proc::Process* proc_{nullptr};
  Fd sock_fd_{-1};
  std::vector<ClientEntry> clients_;
  sim::TimerHandle tick_timer_;
  std::uint32_t snapshot_seq_{0};
  std::uint64_t snapshots_sent_{0};
  // Absolute deadline of the next server frame. Carried across migration so the
  // real-time loop *catches up* after the freeze instead of re-arming a full
  // 50 ms interval — this is what keeps the Figure 4 delay near the downtime.
  std::int64_t next_tick_at_ns_{-1};
};

}  // namespace dvemig::dve
