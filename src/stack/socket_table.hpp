// Socket lookup tables, mirroring the two kernel hashtables the paper manipulates:
//
//  - `ehash` — established TCP connections, keyed by the full 4-tuple;
//  - `bhash` — bound sockets (TCP listeners and UDP), keyed by local port.
//
// Socket migration (Section V-C) begins by *unhashing* a socket from both tables —
// after which the stack no longer delivers packets to it — and ends by *rehashing*
// it on the destination node.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/assert.hpp"
#include "src/net/address.hpp"
#include "src/stack/socket.hpp"

namespace dvemig::stack {

class TcpSocket;
class UdpSocket;

struct FourTuple {
  net::Endpoint local;
  net::Endpoint remote;
  constexpr auto operator<=>(const FourTuple&) const = default;
};

/// Mixes all 96 bits of the 4-tuple into every bit of the result, so the low
/// bits alone (the ehash index under a power-of-two mask) spread keys evenly.
struct FourTupleHash {
  std::uint64_t operator()(const FourTuple& t) const noexcept {
    const std::uint64_t a = (std::uint64_t{t.local.addr.value} << 16) | t.local.port;
    const std::uint64_t b = (std::uint64_t{t.remote.addr.value} << 16) | t.remote.port;
    std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ b;
    x ^= x >> 33;  // MurmurHash3's fmix64 finalizer
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    return x ^ (x >> 33);
  }
};

class SocketTable {
 public:
  // --- ehash (established TCP) ---

  void ehash_insert(const std::shared_ptr<TcpSocket>& sock, const FourTuple& key);
  void ehash_remove(const FourTuple& key);
  std::shared_ptr<TcpSocket> ehash_lookup(const FourTuple& key) const;
  std::size_t ehash_size() const { return ehash_size_; }
  /// Slots in the open-addressed ehash array: 0 or a power of two at least twice
  /// ehash_size().
  std::size_t ehash_capacity() const { return ehash_.size(); }

  // --- bhash (bound: TCP listeners + UDP) ---

  void bhash_insert(const std::shared_ptr<Socket>& sock, net::Port port);
  void bhash_remove(const Socket& sock, net::Port port);
  /// All sockets bound to `port` (there may be a TCP listener and a UDP socket).
  std::vector<std::shared_ptr<Socket>> bhash_lookup(net::Port port) const;
  bool port_bound(net::Port port, SocketType type) const;
  std::size_t bhash_size() const;

  /// Allocate an unused ephemeral port (49152+) for the given protocol. For TCP
  /// this also avoids local ports of established connections — a migrated socket
  /// keeps its source-node port, so the destination must never hand the same port
  /// to a new connection toward the same peer.
  net::Port allocate_ephemeral_port(SocketType type);

  /// Start the ephemeral scan at a per-host position (reduces the chance that two
  /// hosts pick equal ports for connections that might later share a node).
  void set_ephemeral_start(net::Port port);

  // --- audit iteration (dvemig-verify, src/check) ---

  /// Visit every (4-tuple, socket) pair in ehash. Read-only; iteration order is
  /// unspecified.
  void for_each_established(
      const std::function<void(const FourTuple&, const std::shared_ptr<TcpSocket>&)>&
          fn) const;
  /// Visit every (port, socket) pair in bhash.
  void for_each_bound(
      const std::function<void(net::Port, const std::shared_ptr<Socket>&)>& fn) const;
  /// Reference count kept for an established-TCP local port (0 when untracked).
  std::uint32_t tcp_local_port_refs(net::Port port) const;
  /// Number of distinct local ports with a nonzero established-TCP refcount.
  std::size_t tcp_tracked_port_count() const { return tcp_local_ports_.size(); }

 private:
  // ehash is open-addressed with linear probing (DESIGN.md §12.7): a slot with a
  // null socket is empty, the table grows at half load, and a removal shifts the
  // rest of its cluster back, so there are no tombstones.
  struct EhashSlot {
    FourTuple key;
    std::shared_ptr<TcpSocket> sock;
  };

  std::size_t ehash_home(const FourTuple& key) const {
    return static_cast<std::size_t>(FourTupleHash{}(key)) & (ehash_.size() - 1);
  }
  /// The slot holding `key`, or the empty slot ending its probe; table non-empty.
  std::size_t ehash_find(const FourTuple& key) const;
  void ehash_grow();

  std::vector<EhashSlot> ehash_;
  std::size_t ehash_size_{0};
  std::unordered_map<net::Port, std::vector<std::shared_ptr<Socket>>> bhash_;
  std::unordered_map<net::Port, std::uint32_t> tcp_local_ports_;  // refcounts
  net::Port next_ephemeral_{49152};
};

}  // namespace dvemig::stack
