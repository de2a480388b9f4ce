// Per-host network stack: interfaces, demultiplexing, netfilter, jiffies clock and
// routing through each socket's destination cache (`Socket::dst_cache`).
//
// One NetStack instance exists per simulated host — cluster nodes (which have a
// public and a local interface) as well as external game clients (one interface).
//
// The jiffies clock is deliberately *per-host*: each host boots with a different
// offset, exactly the situation that forces the TCP timestamp adjustment during
// socket migration (Section V-C1: "Different nodes can have different jiffies").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/link.hpp"
#include "src/sim/engine.hpp"
#include "src/stack/netfilter.hpp"
#include "src/stack/socket_table.hpp"

namespace dvemig::stack {

class UdpSocket;
class TcpSocket;

/// Linux increments jiffies every 10 ms (HZ=100, as on the paper's 2.6 kernels).
inline constexpr std::int64_t kJiffyNs = 10'000'000;

struct StackStats {
  std::uint64_t rx_packets{0};
  std::uint64_t rx_delivered{0};
  std::uint64_t rx_no_socket{0};
  std::uint64_t rx_bad_checksum{0};
  std::uint64_t rx_hook_dropped{0};
  std::uint64_t rx_hook_stolen{0};
  std::uint64_t tx_packets{0};
  std::uint64_t reinjected{0};
};

class NetStack {
 public:
  /// `clock_offset` models this host's boot time relative to simulation start:
  /// local_now() = engine.now() + clock_offset, jiffies() = local_now() / 10 ms.
  NetStack(sim::Engine& engine, std::string name, SimDuration clock_offset);
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;
  ~NetStack();

  sim::Engine& engine() const { return *engine_; }
  const std::string& name() const { return name_; }

  // --- clock ---
  std::int64_t local_now_ns() const { return engine_->now().ns + clock_offset_.ns; }
  std::int64_t jiffies() const { return local_now_ns() / kJiffyNs; }
  std::uint32_t jiffies32() const { return static_cast<std::uint32_t>(jiffies()); }

  // --- interfaces ---
  void add_interface(net::Ipv4Addr addr, net::PacketSink tx);
  bool has_addr(net::Ipv4Addr addr) const;
  net::Ipv4Addr primary_addr() const;

  // --- wire entry / exit ---
  /// Entry point wired to the NIC: LOCAL_IN hooks -> checksum verify -> demux.
  void rx(net::Packet p);
  /// Reinjection entry used by the capture filter's okfn(): bypasses the LOCAL_IN
  /// hooks (like calling ip_rcv_finish directly) and goes straight to demux.
  void reinject(net::Packet p);
  /// Socket transmit path: LOCAL_OUT hooks -> dst-cache routing -> interface tx.
  void send_from(Socket& sock, net::Packet p);

  // --- sockets ---
  std::shared_ptr<UdpSocket> make_udp();
  std::shared_ptr<TcpSocket> make_tcp();
  SocketTable& table() { return table_; }
  const SocketTable& table() const { return table_; }
  NetfilterChain& netfilter() { return netfilter_; }

  std::uint64_t next_sock_id() { return ++sock_id_counter_; }
  std::uint32_t next_isn();

  /// Visit every socket created by this stack that is still alive (dvemig-verify
  /// uses this for the flag→table direction of the hash bijectivity check).
  /// Expired registry entries are pruned as a side effect.
  void for_each_socket(const std::function<void(const Socket&)>& fn) const;

  const StackStats& stats() const { return stats_; }

 private:
  struct Interface {
    net::Ipv4Addr addr;
    net::PacketSink tx;
  };

  /// Find the socket owning this packet and deliver; false if nobody matched.
  bool demux(net::Packet& p);
  const Interface* route_interface(net::Ipv4Addr src) const;

  sim::Engine* engine_;
  std::string name_;
  SimDuration clock_offset_;
  std::vector<Interface> interfaces_;
  SocketTable table_;
  NetfilterChain netfilter_;
  // Weak registry of every socket ever made; pruned lazily by for_each_socket.
  mutable std::vector<std::weak_ptr<Socket>> socket_registry_;
  std::uint64_t sock_id_counter_{0};
  Rng isn_rng_;
  StackStats stats_;
};

}  // namespace dvemig::stack
