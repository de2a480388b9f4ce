// Incoming packet-loss prevention (Sections III-B, V-B).
//
// The destination node installs a NF_INET_LOCAL_IN hook matching the migrating
// sockets' (remote IP, remote port, local port). Matching packets are *stolen* and
// queued while the socket is down; TCP packets are deduplicated by sequence number.
// After the socket is restored, the queue is reinjected through the stack's okfn()
// equivalent (NetStack::reinject), bypassing the hook itself.
//
// This works only because the single-IP router broadcasts every incoming packet to
// every node: the destination hears the client before it owns the socket.
//
// Matching is O(1) per packet (DESIGN.md §12): specs live in a two-tier hash
// index — an exact tier keyed by the packed (remote addr, remote port, local
// port) tuple and a wildcard tier (listeners, unconnected UDP binds) keyed by
// local port — maintained incrementally as specs are added and sessions end.
// The exact tier is probed first; within a tier, the oldest spec wins, which
// reproduces the pre-index scan's outcome for every overlap pattern the
// protocol can produce (a session's wildcard and exact specs share one queue
// and one logical dedup domain, so which of them matches is unobservable).
// That scan lives on as the property-test oracle in tests/filter_oracles.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mig/socket_image.hpp"
#include "src/obs/metrics.hpp"
#include "src/stack/net_stack.hpp"

namespace dvemig::mig {

class CaptureManager {
 public:
  explicit CaptureManager(stack::NetStack& stack) : stack_(&stack) {}

  /// Open a capture session (one per in-flight migration). Specs can be added
  /// incrementally (the iterative strategy adds them one socket at a time).
  std::uint64_t begin_session();
  void add_spec(std::uint64_t session, CaptureSpec spec);

  /// Reinject every captured packet in arrival order and tear down the session.
  /// Returns the number of packets reinjected.
  std::size_t finish_session(std::uint64_t session);

  /// Tear down without reinjection (failed migration).
  void abort_session(std::uint64_t session);

  std::size_t queued(std::uint64_t session) const;
  std::size_t active_sessions() const { return sessions_.size(); }
  /// Audit iteration (dvemig-verify): visit every queued packet of every open
  /// session, in arrival order within a session.
  void for_each_queued(
      const std::function<void(std::uint64_t session, const net::Packet&)>& fn) const;
  /// Test seam: enqueue a packet directly, bypassing the capture hook and the
  /// dedup filter. Exists so dvemig-verify tests can plant a corrupted queue
  /// and prove the auditor notices; production code must never call it.
  void inject_queued_for_test(std::uint64_t session, net::Packet p);
  std::size_t total_specs() const;
  std::uint64_t total_captured() const { return total_captured_; }
  std::uint64_t total_deduplicated() const { return total_deduplicated_; }

 private:
  struct SpecState {
    CaptureSpec spec;
    // Per-spec TCP dedup. An exact spec pins the whole match tuple, so its
    // key shrinks to the sequence number alone; a wildcard spec still sees
    // many peers and keys by packed (remote addr, remote port).
    std::unordered_set<std::uint32_t> seen_seq;
    std::unordered_map<std::uint64_t, std::unordered_set<std::uint32_t>> seen_by_peer;
  };

  struct Session {
    // deque: SpecState addresses must stay stable — the index holds pointers.
    std::deque<SpecState> specs;
    std::vector<net::Packet> queue;
    // Arrival sim-time of queue[i]; at reinjection, now - arrival is the real
    // delay each captured packet suffered (the `capture.packet_delay_us`
    // histogram — Figure 4's per-packet measurement rather than a bound).
    std::vector<std::int64_t> arrival_ns;
  };

  struct IndexEntry {
    std::uint64_t session;
    SpecState* state;
  };

  struct Metrics {
    obs::CounterRef captured{"capture.captured"};
    obs::CounterRef dedup_hits{"capture.dedup_hits"};
    obs::CounterRef reinjected{"capture.reinjected"};
    obs::HistogramRef packet_delay_us{"capture.packet_delay_us",
                                      obs::default_latency_bounds_us()};
  };

  static std::size_t proto_index(net::IpProto proto) {
    return proto == net::IpProto::tcp ? 0 : 1;
  }

  stack::Verdict on_local_in(net::Packet& p);
  stack::Verdict steal(Session& session, const net::Packet& p);
  void drop_from_index(std::uint64_t session, Session& s);
  void update_hook();

  stack::NetStack* stack_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  // Two-tier spec index, one pair of maps per protocol (proto_index).
  // Buckets keep insertion order; entry 0 is the match winner.
  std::unordered_map<std::uint64_t, std::vector<IndexEntry>> exact_idx_[2];
  std::unordered_map<std::uint16_t, std::vector<IndexEntry>> wildcard_idx_[2];
  std::uint64_t next_session_{0};
  stack::HookHandle hook_;
  std::uint64_t total_captured_{0};
  std::uint64_t total_deduplicated_{0};
  Metrics metrics_;
};

}  // namespace dvemig::mig
