// Second TCP batch: teardown corner cases, reordering, backoff, half-close,
// PAWS boundary conditions, listener lifecycle, and the migration
// detach/attach pair (TCP and UDP).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/check/verifier.hpp"
#include "src/net/switch.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/tcp_socket.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::stack {
namespace {

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);

struct TwoHosts {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  NetStack a{engine, "hostA", SimTime::seconds(100)};
  NetStack b{engine, "hostB", SimTime::seconds(300)};

  TwoHosts() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
  }

  std::pair<TcpSocket::Ptr, TcpSocket::Ptr> connect_pair() {
    auto listener = b.make_tcp();
    listener->bind(kAddrB, 9000);
    listener->listen(8);
    auto client = a.make_tcp();
    client->connect(net::Endpoint{kAddrB, 9000});
    engine.run();
    auto server = listener->accept();
    EXPECT_NE(server, nullptr);
    listener->close();
    return {client, server};
  }
};

TEST(TcpTeardown, SimultaneousClose) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  // Both ends close in the same instant: FINs cross in flight.
  client->close();
  server->close();
  h.engine.run_until(h.engine.now() + SimTime::seconds(3));
  EXPECT_EQ(client->state(), TcpState::closed);
  EXPECT_EQ(server->state(), TcpState::closed);
  EXPECT_EQ(h.a.table().ehash_size(), 0u);
  EXPECT_EQ(h.b.table().ehash_size(), 0u);
}

TEST(TcpTeardown, HalfCloseServerKeepsSending) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->close();  // client done sending; still willing to receive
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  ASSERT_EQ(server->state(), TcpState::close_wait);
  server->send(Buffer(2000, 4));  // data flows against the half-closed direction
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  EXPECT_EQ(client->read_bytes().size(), 2000u);
  server->close();
  h.engine.run_until(h.engine.now() + SimTime::seconds(3));
  EXPECT_EQ(client->state(), TcpState::closed);
}

TEST(TcpTeardown, CloseWithUnsentDataFlushesFirst) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(50'000, 2));
  client->close();  // FIN queued behind 50 kB of data
  Buffer got;
  server->set_on_readable([&, srv = server.get()] {
    Buffer chunk = srv->read_bytes().copy();
    got.insert(got.end(), chunk.begin(), chunk.end());
  });
  h.engine.run_until(h.engine.now() + SimTime::seconds(1));
  EXPECT_EQ(got.size(), 50'000u);
  EXPECT_EQ(server->state(), TcpState::close_wait);  // FIN arrived after the data
}

TEST(TcpTeardown, ListenerCloseAbortsPendingAccepts) {
  TwoHosts h;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(8);
  auto c1 = h.a.make_tcp();
  auto c2 = h.a.make_tcp();
  bool r1 = false, r2 = false;
  c1->set_on_reset([&] { r1 = true; });
  c2->set_on_reset([&] { r2 = true; });
  c1->connect(net::Endpoint{kAddrB, 9000});
  c2->connect(net::Endpoint{kAddrB, 9000});
  h.engine.run();
  ASSERT_EQ(listener->accept_queue_length(), 2u);
  listener->close();  // nobody will ever accept these
  h.engine.run();
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r2);
  EXPECT_FALSE(h.b.table().port_bound(9000, SocketType::tcp));
}

TEST(TcpBackoff, RtoDoublesPerTimeout) {
  TwoHosts h;
  auto client = h.a.make_tcp();
  client->connect(net::Endpoint{kAddrB, 9999});  // nobody listening, no RST
  const SimTime start = h.engine.now();
  h.engine.run_until(start + SimTime::milliseconds(1500));
  // SYN retransmits at ~200, 600, 1400 ms (doubling RTO): 3 by 1.5 s.
  EXPECT_EQ(client->cb().retransmissions, 3u);
  EXPECT_EQ(client->cb().rto_ns, 1'600'000'000);
}

TEST(TcpReorder, JitteredDeliveryStillInOrderToApp) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();

  // Chaos hook: steal every 7th data segment and reinject it 3 ms later —
  // guaranteed out-of-order arrival at the socket.
  int counter = 0;
  HookHandle chaos = h.b.netfilter().register_hook(
      Hook::local_in, -50, [&](net::Packet& p) {
        if (p.proto != net::IpProto::tcp || p.payload.empty()) {
          return Verdict::accept;
        }
        if (++counter % 7 != 0) return Verdict::accept;
        h.engine.schedule_after(SimTime::milliseconds(3),
                                [&h, pkt = p]() mutable { h.b.reinject(std::move(pkt)); });
        return Verdict::stolen;
      });

  Buffer sent(120'000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  Buffer got;
  server->set_on_readable([&, srv = server.get()] {
    Buffer chunk = srv->read_bytes().copy();
    got.insert(got.end(), chunk.begin(), chunk.end());
  });
  client->send(sent);
  h.engine.run_until(h.engine.now() + SimTime::seconds(5));
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_EQ(got, sent);  // exactly-once, in-order, despite the mess
  chaos.release();
}

TEST(TcpPaws, EqualTsvalAccepted) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(10, 1));
  h.engine.run();
  // Two segments within the same jiffy share a tsval; the second must pass.
  client->send(Buffer(10, 2));
  h.engine.run();
  EXPECT_EQ(server->cb().paws_drops, 0u);
  EXPECT_EQ(server->bytes_available(), 20u);
}

TEST(TcpPaws, ChallengeAckOnOldTimestamp) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(10, 1));
  h.engine.run();
  const std::uint64_t acks_before = server->cb().segs_out;
  net::TcpHeader hdr;
  hdr.seq = client->cb().snd_nxt;
  hdr.ack = client->cb().rcv_nxt;
  hdr.flags = net::tcp_flags::ack | net::tcp_flags::psh;
  hdr.tsval = server->cb().ts_recent - 7;
  h.b.rx(net::make_tcp(client->local(), client->remote(), hdr, Buffer(4, 9)));
  EXPECT_EQ(server->cb().paws_drops, 1u);
  EXPECT_EQ(server->cb().segs_out, acks_before + 1);  // challenge ACK went out
}

TEST(TcpDuplex, SimultaneousBulkBothDirections) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  Buffer up(150'000, 0xAA), down(90'000, 0xBB);
  Buffer got_up, got_down;
  server->set_on_readable([&, srv = server.get()] {
    Buffer c = srv->read_bytes().copy();
    got_up.insert(got_up.end(), c.begin(), c.end());
  });
  client->set_on_readable([&, cli = client.get()] {
    Buffer c = cli->read_bytes().copy();
    got_down.insert(got_down.end(), c.begin(), c.end());
  });
  client->send(up);
  server->send(down);
  h.engine.run();
  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);
}

TEST(TcpIsn, DistinctAcrossConnections) {
  TwoHosts h;
  std::set<std::uint32_t> isns;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(64);
  for (int i = 0; i < 32; ++i) {
    auto c = h.a.make_tcp();
    c->connect(net::Endpoint{kAddrB, 9000});
    isns.insert(c->cb().iss);
  }
  EXPECT_EQ(isns.size(), 32u);
}

TEST(TcpPersist, ProbeRecoversFromClosedWindow) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  server->cb().rcv_wnd_max = 4096;
  client->send(Buffer(40'000, 1));
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(300));
  const std::size_t stuck_at = server->bytes_available();
  EXPECT_LT(stuck_at, 40'000u);
  // The app drains in small sips; persist probes + window updates must
  // eventually push everything through.
  std::size_t total = 0;
  std::function<void()> sip = [&] {
    total += server->read_bytes(2048).size();
    if (total < 40'000) {
      h.engine.schedule_after(SimTime::milliseconds(10), sip);
    }
  };
  h.engine.schedule_after(SimTime::milliseconds(1), sip);
  h.engine.run_until(h.engine.now() + SimTime::seconds(10));
  EXPECT_EQ(total, 40'000u);
}

TEST(TcpOutOfOrder, FinBufferedUntilGapFills) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  // Drop exactly one data segment so the FIN (sent right behind) arrives while
  // a gap is still open; the connection must still close cleanly.
  auto remaining = std::make_shared<int>(1);
  HookHandle drop = h.b.netfilter().register_hook(
      Hook::local_in, -100, [remaining](net::Packet& p) {
        if (p.proto == net::IpProto::tcp && !p.payload.empty() && *remaining > 0) {
          --*remaining;
          return Verdict::drop;
        }
        return Verdict::accept;
      });
  bool closed = false;
  server->set_on_peer_closed([&] { closed = true; });
  client->send(Buffer(6000, 3));
  client->close();
  h.engine.run_until(h.engine.now() + SimTime::seconds(2));
  EXPECT_TRUE(closed);
  EXPECT_EQ(server->read_bytes().size(), 6000u);
  EXPECT_EQ(server->state(), TcpState::close_wait);
  drop.release();
}

// ------------------------------------------------------------ detach/attach

/// Where a socket sits in its stack's tables, and what its flags claim.
struct Membership {
  bool in_ehash{false};
  bool in_bhash{false};
  bool hashed_established{false};
  bool hashed_bound{false};
  bool operator==(const Membership&) const = default;
};

Membership membership_of(const NetStack& st, const Socket& s) {
  Membership m;
  const auto bucket = st.table().bhash_lookup(s.local().port);
  m.in_bhash = std::any_of(bucket.begin(), bucket.end(),
                           [&](const auto& b) { return b.get() == &s; });
  m.hashed_bound = s.hashed_bound();
  if (s.type() == SocketType::tcp) {
    m.in_ehash = st.table().ehash_lookup(FourTuple{s.local(), s.remote()}).get() == &s;
    m.hashed_established = static_cast<const TcpSocket&>(s).hashed_established();
  }
  return m;
}

/// Section V-C's unhash and rehash, in stack terms: detach() leaves the socket
/// in no table with no timer and no dst-cache entry; attach() puts back exactly
/// what was there, re-arming the RTO iff data is in flight and the time-wait
/// timer iff the state is TIME_WAIT. Repeating either call changes nothing, and
/// dvemig-verify stays clean throughout.
struct DetachAttach : ::testing::Test {
  TwoHosts h;
  check::Verifier verify{h.engine, check::VerifierConfig{1, false, 16}};

  DetachAttach() {
    verify.watch_stack(h.a);
    verify.watch_stack(h.b);
  }

  void TearDown() override {
    verify.audit_now();
    EXPECT_TRUE(verify.clean()) << verify.violations().front().rule << ": "
                                << verify.violations().front().detail;
  }

  void expect_detached(const NetStack& st, const Socket& s) {
    EXPECT_EQ(membership_of(st, s), Membership{});
    EXPECT_TRUE(s.migration_disabled());
    EXPECT_EQ(s.dst_cache(), net::Ipv4Addr::any());
    if (s.type() == SocketType::tcp) {
      EXPECT_FALSE(static_cast<const TcpSocket&>(s).any_timer_pending());
    }
  }

  void expect_timers(const TcpSocket& s, bool in_flight) {
    EXPECT_EQ(s.rto_pending(), in_flight && s.state() != TcpState::closed)
        << tcp_state_name(s.state());
    EXPECT_EQ(s.time_wait_pending(), s.state() == TcpState::time_wait);
  }

  /// Round-trip `s` (and a listener's accept-queue children) through
  /// detach()/attach(), twice each.
  void round_trip(NetStack& st, const std::shared_ptr<Socket>& s) {
    std::vector<std::shared_ptr<TcpSocket>> children;
    if (s->type() == SocketType::tcp) {
      const auto& q = static_cast<const TcpSocket&>(*s).accept_queue();
      children.assign(q.begin(), q.end());
    }
    const Membership before = membership_of(st, *s);
    std::vector<Membership> children_before;
    for (const auto& c : children) children_before.push_back(membership_of(st, *c));
    const auto in_flight = [](const Socket& x) {
      return x.type() == SocketType::tcp &&
             static_cast<const TcpSocket&>(x).cb().inflight() > 0;
    };

    for (int pass = 0; pass < 2; ++pass) {
      s->detach();
      verify.audit_now();
      expect_detached(st, *s);
      for (const auto& c : children) expect_detached(st, *c);
    }

    s->attach();
    verify.audit_now();
    // A re-arm cancels and reschedules, which leaves the live-event count as
    // it was but queues one more heap key, so the key count is the witness.
    const std::size_t events = h.engine.pending_events();
    const std::size_t keys = h.engine.queued_keys();
    s->attach();  // already hashed: nothing to insert, no timer re-armed
    EXPECT_EQ(h.engine.pending_events(), events);
    EXPECT_EQ(h.engine.queued_keys(), keys);
    EXPECT_EQ(membership_of(st, *s), before);
    EXPECT_FALSE(s->migration_disabled());
    for (std::size_t i = 0; i < children.size(); ++i) {
      EXPECT_EQ(membership_of(st, *children[i]), children_before[i]);
      EXPECT_FALSE(children[i]->migration_disabled());
      expect_timers(*children[i], in_flight(*children[i]));
    }
    if (s->type() == SocketType::tcp) {
      expect_timers(static_cast<const TcpSocket&>(*s), in_flight(*s));
    }
  }
};

TEST_F(DetachAttach, ListenerWithAcceptQueueChildren) {
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(8);
  auto c1 = h.a.make_tcp();
  auto c2 = h.a.make_tcp();
  c1->connect(net::Endpoint{kAddrB, 9000});
  c2->connect(net::Endpoint{kAddrB, 9000});
  h.engine.run();
  ASSERT_EQ(listener->accept_queue_length(), 2u);
  const Membership bound = membership_of(h.b, *listener);
  EXPECT_TRUE(bound.in_bhash && bound.hashed_bound);
  round_trip(h.b, listener);
}

TEST_F(DetachAttach, SynSent) {
  auto client = h.a.make_tcp();
  client->connect(net::Endpoint{kAddrB, 9100});  // nobody listens: SYN unanswered
  ASSERT_EQ(client->state(), TcpState::syn_sent);
  ASSERT_GT(client->cb().inflight(), 0u);
  round_trip(h.a, client);
}

TEST_F(DetachAttach, EstablishedIdleAndWithDataInFlight) {
  auto [client, server] = h.connect_pair();
  h.engine.run();
  ASSERT_EQ(server->cb().inflight(), 0u);
  round_trip(h.b, server);
  client->send(Buffer(3000, 7));
  ASSERT_GT(client->cb().inflight(), 0u);
  round_trip(h.a, client);
}

TEST_F(DetachAttach, CloseWait) {
  auto [client, server] = h.connect_pair();
  client->close();
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  ASSERT_EQ(server->state(), TcpState::close_wait);
  round_trip(h.b, server);
}

TEST_F(DetachAttach, FinWait1) {
  auto [client, server] = h.connect_pair();
  h.engine.run();
  server->close();  // FIN in flight
  ASSERT_EQ(server->state(), TcpState::fin_wait1);
  round_trip(h.b, server);
}

TEST_F(DetachAttach, TimeWait) {
  auto [client, server] = h.connect_pair();
  client->close();
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  server->close();
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  ASSERT_EQ(client->state(), TcpState::time_wait);
  round_trip(h.a, client);
  // The restarted time-wait timer still finishes the close.
  h.engine.run_until(h.engine.now() + SimTime::seconds(2));
  EXPECT_EQ(client->state(), TcpState::closed);
  EXPECT_EQ(h.a.table().ehash_size(), 0u);
}

TEST_F(DetachAttach, ClosedWithDataInFlightStaysUnhashed) {
  auto [client, server] = h.connect_pair();
  client->send(Buffer(3000, 7));
  client->abort();
  ASSERT_EQ(client->state(), TcpState::closed);
  ASSERT_GT(client->cb().inflight(), 0u);
  round_trip(h.a, client);
  EXPECT_EQ(h.a.table().ehash_size(), 0u);
}

TEST_F(DetachAttach, UdpBoundConnectedAndUnbound) {
  auto bound = h.b.make_udp();
  bound->bind(kAddrB, 27960);
  auto connected = h.a.make_udp();
  connected->connect(net::Endpoint{kAddrB, 27960});
  connected->send(Buffer{1, 2, 3});  // fills the dst cache
  h.engine.run();
  auto unbound = h.a.make_udp();
  round_trip(h.b, bound);
  round_trip(h.a, connected);
  round_trip(h.a, unbound);
  EXPECT_TRUE(h.b.table().port_bound(27960, SocketType::udp));
  EXPECT_FALSE(membership_of(h.a, *unbound).in_bhash);
  EXPECT_TRUE(membership_of(h.a, *connected).in_bhash);
}

}  // namespace
}  // namespace dvemig::stack
