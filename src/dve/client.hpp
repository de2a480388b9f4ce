// Game clients — hosts on the internet side of the broadcast router.
//
// Each client host runs its own NetStack (its TCP/UDP endpoints are full peers of
// the migratable server sockets), so "the transition is fully transparent from the
// peers' point of view" is checked against real protocol state, not assumed.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/dve/zone.hpp"
#include "src/net/router.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/tcp_socket.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::dve {

class ClientHost {
 public:
  ClientHost(sim::Engine& engine, net::BroadcastRouter& router, net::Ipv4Addr addr,
             std::string name, SimDuration clock_offset = SimTime::zero());
  ~ClientHost();
  ClientHost(const ClientHost&) = delete;
  ClientHost& operator=(const ClientHost&) = delete;

  stack::NetStack& stack() { return stack_; }
  net::Ipv4Addr addr() const { return addr_; }

 private:
  net::BroadcastRouter* router_;
  net::Ipv4Addr addr_;
  stack::NetStack stack_;
};

struct PacketRecord {
  SimTime t{};
  std::uint32_t seq{0};
};

/// OpenArena-style UDP client: sends a command datagram every `cmd_period`
/// (keeping itself known to the server) and records every received snapshot.
class UdpGameClient {
 public:
  UdpGameClient(ClientHost& host, net::Endpoint server,
                SimDuration cmd_period = SimTime::milliseconds(50));

  void start();
  void stop();

  const std::vector<PacketRecord>& received() const { return received_; }
  std::uint64_t commands_sent() const { return commands_sent_; }

  /// Largest gap between consecutive snapshot arrivals within [from, to].
  SimDuration max_gap(SimTime from, SimTime to) const;
  /// Count of missing snapshot sequence numbers over the recorded range.
  std::size_t missing_snapshots() const;

 private:
  void send_command();
  void on_readable();

  ClientHost* host_;
  net::Endpoint server_;
  SimDuration cmd_period_;
  std::shared_ptr<stack::UdpSocket> sock_;
  sim::TimerHandle cmd_timer_;
  std::vector<PacketRecord> received_;
  std::uint64_t commands_sent_{0};
};

/// DVE client: one TCP connection to the zone server of its current zone. The
/// zone is addressed purely by port on the shared public IP, so neither zone
/// handoffs nor server migrations require knowing which node serves the zone.
class TcpDveClient {
 public:
  TcpDveClient(ClientHost& host, net::Ipv4Addr server_ip);

  /// Connect (or hand off) to a zone's server; closes any previous connection.
  void connect_to_zone(ZoneId zone);
  void disconnect();
  bool connected() const;
  ZoneId zone() const { return zone_; }

  /// Active mode: send a `bytes`-sized message every `period` (fig. 5b/5c load).
  void set_active(SimDuration period, std::size_t bytes);
  void set_record(bool v) { record_ = v; }

  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t updates_received() const { return updates_received_; }
  std::uint64_t resets_seen() const { return resets_seen_; }
  const std::vector<PacketRecord>& records() const { return records_; }

 private:
  void on_readable();
  void send_message();

  ClientHost* host_;
  net::Ipv4Addr server_ip_;
  ZoneId zone_{0};
  std::shared_ptr<stack::TcpSocket> sock_;
  sim::TimerHandle send_timer_;
  SimDuration active_period_{SimTime::zero()};
  std::size_t active_bytes_{0};
  bool record_{false};

  Bytes rx_;  // received bytes not yet cut into updates
  std::uint64_t bytes_received_{0};
  std::uint64_t updates_received_{0};
  std::uint64_t resets_seen_{0};
  std::vector<PacketRecord> records_;
};

}  // namespace dvemig::dve
