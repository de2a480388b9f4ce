// TCP stack tests: handshake, data transfer, segmentation, loss recovery,
// out-of-order assembly, PAWS, socket-lock queues (backlog/prequeue), flow
// control, teardown, and the lookup tables.
#include <gtest/gtest.h>

#include "src/check/verifier.hpp"
#include "src/stack/net_stack.hpp"
#include "src/net/switch.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig::stack {
namespace {

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);

check::VerifierConfig audit_cfg() {
  check::VerifierConfig cfg;
  cfg.abort_on_violation = false;  // report through gtest, not abort()
  return cfg;
}

struct TwoHosts {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  NetStack a{engine, "hostA", SimTime::seconds(100)};
  NetStack b{engine, "hostB", SimTime::seconds(300)};
  // dvemig-verify audits both stacks after every event of every test.
  check::Verifier verify{engine, audit_cfg()};

  TwoHosts() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
    verify.watch_stack(a);
    verify.watch_stack(b);
  }

  ~TwoHosts() {
    EXPECT_TRUE(verify.clean())
        << verify.violations().front().rule << ": "
        << verify.violations().front().detail;
  }

  /// Standard client(a) -> server(b) established pair on port 9000.
  std::pair<TcpSocket::Ptr, TcpSocket::Ptr> connect_pair() {
    auto listener = b.make_tcp();
    listener->bind(kAddrB, 9000);
    listener->listen(8);
    auto client = a.make_tcp();
    client->connect(net::Endpoint{kAddrB, 9000});
    engine.run();
    auto server = listener->accept();
    EXPECT_NE(server, nullptr);
    EXPECT_EQ(client->state(), TcpState::established);
    listener->close();
    return {client, server};
  }
};

TEST(TcpHelpers, SequenceComparisonWrapsAround) {
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x10u));  // wrapped: FFFFFFF0 < 10
  EXPECT_TRUE(seq_gt(0x10u, 0xFFFFFFF0u));
  EXPECT_TRUE(seq_le(5, 5));
  EXPECT_TRUE(seq_ge(5, 5));
  EXPECT_FALSE(seq_lt(5, 5));
}

TEST(TcpHandshake, ThreeWayEstablishesBothEnds) {
  TwoHosts h;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(8);

  bool connected = false;
  bool accept_ready = false;
  auto client = h.a.make_tcp();
  client->set_on_connected([&] { connected = true; });
  listener->set_on_accept_ready([&] { accept_ready = true; });
  client->connect(net::Endpoint{kAddrB, 9000});
  EXPECT_EQ(client->state(), TcpState::syn_sent);
  h.engine.run();

  EXPECT_TRUE(connected);
  EXPECT_TRUE(accept_ready);
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->state(), TcpState::established);
  EXPECT_EQ(server->state(), TcpState::established);
  EXPECT_EQ(server->remote(), client->local());
  EXPECT_EQ(server->local(), client->remote());
}

TEST(TcpHandshake, ConnectionRefusedWhenNoListener) {
  TwoHosts h;
  auto client = h.a.make_tcp();
  client->connect(net::Endpoint{kAddrB, 9999});
  h.engine.run_until(SimTime::milliseconds(300));
  // No RST is generated (single-IP cluster semantics): the SYN is retransmitted.
  EXPECT_EQ(client->state(), TcpState::syn_sent);
  EXPECT_GE(client->cb().retransmissions, 1u);
}

TEST(TcpHandshake, BacklogLimitDropsExcessConnections) {
  TwoHosts h;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(2);
  std::vector<TcpSocket::Ptr> clients;
  for (int i = 0; i < 5; ++i) {
    auto c = h.a.make_tcp();
    c->connect(net::Endpoint{kAddrB, 9000});
    clients.push_back(c);
  }
  h.engine.run_until(SimTime::milliseconds(50));
  EXPECT_EQ(listener->accept_queue_length(), 2u);
}

TEST(TcpData, SmallMessageBothDirections) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer{'p', 'i', 'n', 'g'});
  h.engine.run();
  EXPECT_EQ(server->read_bytes(), (Buffer{'p', 'i', 'n', 'g'}));
  server->send(Buffer{'p', 'o', 'n', 'g'});
  h.engine.run();
  EXPECT_EQ(client->read_bytes(), (Buffer{'p', 'o', 'n', 'g'}));
}

TEST(TcpData, OnReadableFires) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  int notified = 0;
  server->set_on_readable([&] { ++notified; });
  client->send(Buffer(100, 1));
  h.engine.run();
  EXPECT_GE(notified, 1);
  EXPECT_EQ(server->bytes_available(), 100u);
}

TEST(TcpData, BulkTransferSegmentsAndReassembles) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  Buffer big(300'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  Buffer received;
  server->set_on_readable([&, srv = server.get()] {
    Buffer chunk = srv->read_bytes().copy();
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  client->send(big);
  h.engine.run();
  ASSERT_EQ(received.size(), big.size());
  EXPECT_EQ(received, big);  // exact byte sequence preserved
  EXPECT_EQ(client->cb().retransmissions, 0u);
}

TEST(TcpData, ThroughputNearLineRate) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  const SimTime start = h.engine.now();
  std::size_t received = 0;
  server->set_on_readable([&, srv = server.get()] { received += srv->read_bytes().size(); });
  client->send(Buffer(4'000'000, 7));
  h.engine.run();
  const double secs = (h.engine.now() - start).to_sec();
  const double gbps = static_cast<double>(received) * 8 / secs / 1e9;
  EXPECT_GT(gbps, 0.70);  // should reach a good fraction of the 1 Gb/s link
  EXPECT_LT(gbps, 1.0);
}

TEST(TcpData, CongestionWindowGrowsFromSlowStart) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  const std::uint32_t initial_cwnd = client->cb().cwnd;
  server->set_on_readable([srv = server.get()] { (void)srv->read_bytes(); });
  client->send(Buffer(500'000, 7));
  h.engine.run();
  EXPECT_GT(client->cb().cwnd, initial_cwnd);
}

// Drop-injecting hook: drops the first `n` matching data segments entering `st`.
HookHandle drop_first_n(NetStack& st, int n, std::size_t min_payload = 1) {
  auto remaining = std::make_shared<int>(n);
  return st.netfilter().register_hook(
      Hook::local_in, -100, [remaining, min_payload](net::Packet& p) {
        if (p.proto == net::IpProto::tcp && p.payload.size() >= min_payload &&
            *remaining > 0) {
          --*remaining;
          return Verdict::drop;
        }
        return Verdict::accept;
      });
}

TEST(TcpLoss, RetransmissionRecoversDroppedSegment) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  HookHandle drop = drop_first_n(h.b, 1);
  Buffer received;
  server->set_on_readable([&, srv = server.get()] {
    Buffer chunk = srv->read_bytes().copy();
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  Buffer msg(40'000);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
  client->send(msg);
  h.engine.run();
  EXPECT_EQ(received, msg);
  EXPECT_GE(client->cb().retransmissions, 1u);
  drop.release();
}

TEST(TcpLoss, FastRetransmitTriggersOnDupAcks) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  HookHandle drop = drop_first_n(h.b, 1);
  server->set_on_readable([srv = server.get()] { (void)srv->read_bytes(); });
  const SimTime start = h.engine.now();
  client->send(Buffer(100'000, 3));
  h.engine.run();
  // Recovery must come from dup-acks well before the 200 ms RTO.
  EXPECT_LT((h.engine.now() - start).to_ms(), 150.0);
  EXPECT_GE(client->cb().retransmissions, 1u);
  drop.release();
}

TEST(TcpLoss, OutOfOrderSegmentsBufferedAndDelivered) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  HookHandle drop = drop_first_n(h.b, 1);
  bool saw_ooo = false;
  server->set_on_readable([&, srv = server.get()] {
    saw_ooo = saw_ooo || !srv->cb().ooo_queue.empty();
    (void)srv->read_bytes();
  });
  // Poll the out-of-order queue at fine grain while the gap is open (fast
  // retransmit closes it within a millisecond on this LAN).
  for (int i = 1; i <= 100; ++i) {
    h.engine.schedule_after(SimTime::microseconds(20 * i), [&] {
      saw_ooo = saw_ooo || !server->cb().ooo_queue.empty();
    });
  }
  client->send(Buffer(60'000, 9));
  h.engine.run();
  EXPECT_TRUE(saw_ooo);
  EXPECT_TRUE(server->cb().ooo_queue.empty());  // fully drained at the end
  drop.release();
}

TEST(TcpLoss, LostAckRecovered) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  // Drop pure ACKs arriving at the *client* (payload >= 0 means any tcp).
  auto remaining = std::make_shared<int>(2);
  HookHandle drop = h.a.netfilter().register_hook(
      Hook::local_in, -100, [remaining](net::Packet& p) {
        if (p.proto == net::IpProto::tcp && p.payload.empty() && *remaining > 0) {
          --*remaining;
          return Verdict::drop;
        }
        return Verdict::accept;
      });
  server->set_on_readable([srv = server.get()] { (void)srv->read_bytes(); });
  client->send(Buffer(10'000, 5));
  h.engine.run();
  EXPECT_EQ(client->cb().snd_una, client->cb().snd_nxt);  // eventually all acked
  drop.release();
}

TEST(TcpTimestamps, PawsDropsOldTsval) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(100, 1));
  h.engine.run();
  (void)server->read_bytes();

  // Forge a segment with a tsval far in the peer's past.
  net::TcpHeader hdr;
  hdr.seq = client->cb().snd_nxt;
  hdr.ack = client->cb().rcv_nxt;
  hdr.flags = net::tcp_flags::ack | net::tcp_flags::psh;
  hdr.tsval = server->cb().ts_recent - 1000;
  hdr.tsecr = 0;
  net::Packet p = net::make_tcp(client->local(), client->remote(), hdr, Buffer(10, 2));
  const std::uint64_t before = server->cb().paws_drops;
  h.b.rx(std::move(p));
  h.engine.run();
  EXPECT_EQ(server->cb().paws_drops, before + 1);
  EXPECT_EQ(server->bytes_available(), 0u);  // payload was not accepted
}

TEST(TcpTimestamps, TsRecentTracksPeer) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  const std::uint32_t before = server->cb().ts_recent;
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(500));
  client->send(Buffer(10, 1));
  h.engine.run();
  EXPECT_GT(server->cb().ts_recent, before);  // jiffies advanced ~50 ticks
}

TEST(TcpLock, UserLockDivertsToBacklog) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  server->lock_user();
  client->send(Buffer(500, 1));
  // Bounded run: the unacked segment keeps the client retransmitting while the
  // receiver holds the lock, so the event queue never drains on its own.
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  EXPECT_FALSE(server->cb().backlog.empty());  // held while "in a syscall"
  EXPECT_EQ(server->bytes_available(), 0u);
  server->unlock_user();
  EXPECT_TRUE(server->cb().backlog.empty());
  EXPECT_EQ(server->bytes_available(), 500u);
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(50));
  EXPECT_EQ(client->cb().snd_una, client->cb().snd_nxt);  // finally acked
}

TEST(TcpLock, BlockedReaderUsesPrequeue) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  server->set_blocked_reader(true);
  bool prequeued = false;
  // Sample the prequeue while the segment waits for the reader's wakeup.
  server->set_on_readable([&] {});
  client->send(Buffer(100, 1));
  for (int i = 1; i <= 30; ++i) {
    h.engine.schedule_after(SimTime::microseconds(10 * i), [&] {
      prequeued = prequeued || !server->cb().prequeue.empty();
    });
  }
  h.engine.run();
  // Processed "in the reader's context" one event later: delivered by now.
  EXPECT_TRUE(prequeued);
  EXPECT_TRUE(server->cb().prequeue.empty());
  EXPECT_EQ(server->bytes_available(), 100u);
  server->set_blocked_reader(false);
}

TEST(TcpFlowControl, ZeroWindowStallsSenderUntilRead) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  server->cb().rcv_wnd_max = 8 * 1024;  // tiny receive buffer
  client->send(Buffer(64 * 1024, 1));
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(100));
  // Receiver app never read: the sender must stall near the 8 KiB window (the
  // persist probe may land at most one extra segment).
  // The initial flight (one cwnd, sent under the handshake-advertised window)
  // plus at most a probe may land; far short of 64 KiB either way.
  const std::size_t stalled_at = server->bytes_available();
  EXPECT_GT(stalled_at, 0u);
  EXPECT_LE(stalled_at, 16 * 1024u);
  // App finally reads -> window updates -> the rest of the 64 KiB flows.
  std::size_t total = 0;
  std::function<void()> drain = [&] { total += server->read_bytes().size(); };
  server->set_on_readable(drain);
  drain();
  h.engine.run();
  EXPECT_EQ(total + 0u, 64 * 1024u);
}

TEST(TcpClose, OrderlyFinHandshake) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  bool server_saw_close = false;
  server->set_on_peer_closed([&] { server_saw_close = true; });
  client->close();
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(100));
  EXPECT_TRUE(server_saw_close);
  EXPECT_EQ(server->state(), TcpState::close_wait);
  EXPECT_EQ(client->state(), TcpState::fin_wait2);
  server->close();
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(100));
  EXPECT_EQ(server->state(), TcpState::closed);
  EXPECT_EQ(client->state(), TcpState::time_wait);
  h.engine.run_until(h.engine.now() + SimTime::seconds(2));
  EXPECT_EQ(client->state(), TcpState::closed);  // TIME_WAIT expired
}

TEST(TcpClose, DataBeforeFinDelivered) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(1000, 6));
  client->close();
  h.engine.run();
  EXPECT_EQ(server->read_bytes().size(), 1000u);
  EXPECT_EQ(server->state(), TcpState::close_wait);
}

TEST(TcpClose, AbortSendsRst) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  bool reset_seen = false;
  server->set_on_reset([&] { reset_seen = true; });
  client->abort();
  h.engine.run();
  EXPECT_TRUE(reset_seen);
  EXPECT_EQ(server->state(), TcpState::closed);
  EXPECT_EQ(client->state(), TcpState::closed);
}

TEST(TcpTables, EstablishedSocketsInEhash) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  EXPECT_EQ(h.a.table().ehash_lookup(FourTuple{client->local(), client->remote()}),
            client);
  EXPECT_EQ(h.b.table().ehash_size(), 1u);
  client->close();
  server->close();
  h.engine.run_until(h.engine.now() + SimTime::seconds(3));
  EXPECT_EQ(h.a.table().ehash_size(), 0u);
  EXPECT_EQ(h.b.table().ehash_size(), 0u);
}

TEST(TcpTables, EphemeralPortsUniquePerConnection) {
  TwoHosts h;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(64);
  std::set<net::Port> ports;
  std::vector<TcpSocket::Ptr> clients;
  for (int i = 0; i < 20; ++i) {
    auto c = h.a.make_tcp();
    c->connect(net::Endpoint{kAddrB, 9000});
    clients.push_back(c);
    ports.insert(c->local().port);
  }
  EXPECT_EQ(ports.size(), 20u);
  h.engine.run();
  for (const auto& c : clients) EXPECT_EQ(c->state(), TcpState::established);
}

TEST(TcpStats, CountersTrackTraffic) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  client->send(Buffer(5000, 1));
  h.engine.run();
  EXPECT_EQ(client->cb().bytes_out, 5000u);
  EXPECT_EQ(server->cb().bytes_in, 5000u);
  EXPECT_GT(server->cb().segs_in, 0u);
}

TEST(TcpRtt, SrttConvergesToPathRtt) {
  TwoHosts h;
  auto [client, server] = h.connect_pair();
  server->set_on_readable([srv = server.get()] { (void)srv->read_bytes(); });
  for (int i = 0; i < 20; ++i) {
    h.engine.schedule_after(SimTime::milliseconds(10 * (i + 1)),
                            [&, c = client.get()] { c->send(Buffer(100, 1)); });
  }
  h.engine.run();
  // Path RTT is ~2 * (25 us latency + serialization); srtt must land nearby.
  EXPECT_GT(client->cb().srtt_ns, 30'000);
  EXPECT_LT(client->cb().srtt_ns, 500'000);
  EXPECT_GE(client->cb().rto_ns, kMinRtoNs);
}

}  // namespace
}  // namespace dvemig::stack
