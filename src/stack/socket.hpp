// Socket base type shared by the UDP and TCP implementations.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/assert.hpp"
#include "src/net/address.hpp"

namespace dvemig::stack {

class NetStack;

enum class SocketType : std::uint8_t { udp, tcp };

class Socket : public std::enable_shared_from_this<Socket> {
 public:
  virtual ~Socket() = default;

  SocketType type() const { return type_; }
  const net::Endpoint& local() const { return local_; }
  const net::Endpoint& remote() const { return remote_; }
  NetStack& stack() const { return *stack_; }

  /// Unique per-stack-creation id, used by trace logs.
  std::uint64_t sock_id() const { return sock_id_; }

  /// The cached next hop of a connected socket (Linux's `sk_dst_cache`), or
  /// any() when not cached. send_from fills it, unhash clears it, and the
  /// translation daemon repoints it at a migrated peer's node (Section V-D).
  net::Ipv4Addr dst_cache() const { return dst_cache_; }
  void set_dst_cache(net::Ipv4Addr next_hop) { dst_cache_ = next_hop; }

  /// True once the socket has been unhashed for migration: it no longer receives
  /// packets and must not transmit.
  bool migration_disabled() const { return migration_disabled_; }
  /// True while the socket sits in bhash (a TCP listener or a bound UDP socket).
  bool hashed_bound() const { return hashed_bound_; }

  /// The source's half of Section V-C: unhash from ehash/bhash, clear the
  /// timers, clear the dst cache and set migration_disabled(). A listener
  /// detaches its accept-queue children too. Calling it twice is safe.
  virtual void detach() = 0;
  /// The inverse, used by the destination's restore and the source's rollback
  /// (and by listen/connect/bind on the way in): hash the socket by its state
  /// and restart its timers. A no-op on a socket that is already hashed, and a
  /// CLOSED TCP socket is never hashed.
  virtual void attach() = 0;
  /// Point a detached socket at another remote endpoint (the tables are keyed
  /// by it): the freeze retargets sockets whose peer moved, and a failed
  /// migration points them back.
  void set_remote(net::Endpoint remote) {
    DVEMIG_EXPECTS(migration_disabled_);
    remote_ = remote;
  }

 protected:
  Socket(NetStack& stack, SocketType type, std::uint64_t sock_id)
      : stack_(&stack), type_(type), sock_id_(sock_id) {}

  NetStack* stack_;
  SocketType type_;
  std::uint64_t sock_id_;
  net::Endpoint local_{};
  net::Endpoint remote_{};
  net::Ipv4Addr dst_cache_{};
  bool migration_disabled_{false};
  bool hashed_bound_{false};
};

}  // namespace dvemig::stack
