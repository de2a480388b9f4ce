// UDP socket and NetStack demux/netfilter/dst-cache tests.
#include <gtest/gtest.h>

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
};

TEST(UdpTest, SendToBoundSocket) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{'h', 'i'});
  h.engine.run();
  auto d = server->recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->data, (Buffer{'h', 'i'}));
  EXPECT_EQ(d->from.addr, kAddrA);
}

TEST(UdpTest, ReplyReachesEphemeralPort) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  h.engine.run();
  const auto req = server->recv();
  ASSERT_TRUE(req.has_value());
  server->send_to(req->from, Buffer{2});
  h.engine.run();
  const auto resp = client->recv();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->data, (Buffer{2}));
}

TEST(UdpTest, ConnectedSocketFiltersForeignSenders) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  server->connect(net::Endpoint{kAddrA, 7777});  // only accepts this peer

  auto right = h.a.make_udp();
  right->bind(kAddrA, 7777);
  auto wrong = h.a.make_udp();
  wrong->bind(kAddrA, 8888);

  right->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  wrong->send_to(net::Endpoint{kAddrB, 5000}, Buffer{2});
  h.engine.run();
  ASSERT_EQ(server->pending(), 1u);
  EXPECT_EQ(server->recv()->data, (Buffer{1}));
}

TEST(UdpTest, OnReadableCallback) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  int called = 0;
  server->set_on_readable([&] { ++called; });
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{2});
  h.engine.run();
  EXPECT_EQ(called, 2);
}

TEST(UdpTest, RcvbufCapDropsExcess) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  server->cb().rcvbuf_datagrams = 3;
  auto client = h.a.make_udp();
  for (int i = 0; i < 10; ++i) {
    client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{static_cast<std::uint8_t>(i)});
  }
  h.engine.run();
  EXPECT_EQ(server->pending(), 3u);
  EXPECT_EQ(server->cb().dropped_rcvbuf, 7u);
}

TEST(UdpTest, CloseUnbindsPort) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  EXPECT_TRUE(h.b.table().port_bound(5000, SocketType::udp));
  server->close();
  EXPECT_FALSE(h.b.table().port_bound(5000, SocketType::udp));
  auto again = h.b.make_udp();
  again->bind(kAddrB, 5000);  // rebinding after close must succeed
}

TEST(StackTest, NoSocketMeansSilentDrop) {
  TwoHosts h;
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 4242}, Buffer{1});
  h.engine.run();
  EXPECT_EQ(h.b.stats().rx_no_socket, 1u);
  EXPECT_EQ(h.b.stats().rx_delivered, 0u);
}

TEST(StackTest, CorruptedChecksumDropped) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  net::Packet p = net::make_udp({kAddrA, 1234}, {kAddrB, 5000}, Buffer{1, 2, 3});
  p.checksum ^= 0x5555;  // corrupt in flight
  h.b.rx(std::move(p));
  h.engine.run();
  EXPECT_EQ(h.b.stats().rx_bad_checksum, 1u);
  EXPECT_EQ(server->pending(), 0u);
}

TEST(StackTest, JiffiesDifferAcrossHosts) {
  TwoHosts h;
  // hostA booted at +100 s, hostB at +300 s: 200 s = 20,000 jiffies apart.
  EXPECT_EQ(h.b.jiffies() - h.a.jiffies(), 20'000);
  const std::int64_t ja = h.a.jiffies();
  h.engine.run_until(SimTime::milliseconds(100));
  EXPECT_EQ(h.a.jiffies(), ja + 10);  // 10 ms per jiffy
}

TEST(StackTest, HookDropVerdictCounts) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  HookHandle hook = h.b.netfilter().register_hook(
      Hook::local_in, 0, [](net::Packet&) { return Verdict::drop; });
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  h.engine.run();
  EXPECT_EQ(h.b.stats().rx_hook_dropped, 1u);
  EXPECT_EQ(server->pending(), 0u);
  hook.release();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{2});
  h.engine.run();
  EXPECT_EQ(server->pending(), 1u);
}

TEST(StackTest, HooksRunInPriorityOrder) {
  TwoHosts h;
  std::vector<int> order;
  HookHandle h2 = h.b.netfilter().register_hook(Hook::local_in, 10, [&](net::Packet&) {
    order.push_back(2);
    return Verdict::accept;
  });
  HookHandle h1 = h.b.netfilter().register_hook(Hook::local_in, -10, [&](net::Packet&) {
    order.push_back(1);
    return Verdict::accept;
  });
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  h.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(StackTest, LocalOutHookSeesOutgoingPackets) {
  TwoHosts h;
  int seen = 0;
  HookHandle hook = h.a.netfilter().register_hook(Hook::local_out, 0,
                                                  [&](net::Packet&) {
                                                    ++seen;
                                                    return Verdict::accept;
                                                  });
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 5000}, Buffer{1});
  h.engine.run();
  EXPECT_EQ(seen, 1);
}

TEST(StackTest, DstCachePopulatedForConnectedSocketsAndSteersFrames) {
  TwoHosts h;
  auto client = h.a.make_udp();
  client->connect(net::Endpoint{kAddrB, 5000});  // connected: per-socket route
  client->send(Buffer{1});
  EXPECT_EQ(client->dst_cache(), kAddrB);
  h.engine.run();  // let the first (unowned) datagram drain away
  // Poison the cache: frames go to the cached hop, not the header destination.
  client->set_dst_cache(net::Ipv4Addr::octets(10, 0, 0, 99));
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  client->send(Buffer{2});
  h.engine.run();
  EXPECT_EQ(server->pending(), 0u);  // misdelivered to a nonexistent port
  EXPECT_EQ(h.sw.dropped_unroutable(), 1u);
}

TEST(StackTest, UnconnectedUdpRoutesPerPacket) {
  // An unconnected UDP socket (like transd's control socket) answers many peers;
  // no per-socket cache entry may steer later datagrams to the first peer.
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  auto multi = h.a.make_udp();
  multi->send_to(net::Endpoint{net::Ipv4Addr::octets(10, 0, 0, 77), 5000}, Buffer{1});
  h.engine.run();
  multi->send_to(net::Endpoint{kAddrB, 5000}, Buffer{2});  // different peer
  h.engine.run();
  ASSERT_EQ(server->pending(), 1u);
  EXPECT_EQ(server->recv()->data, (Buffer{2}));
}

TEST(StackTest, ReinjectBypassesLocalInHooks) {
  TwoHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 5000);
  int hook_hits = 0;
  HookHandle hook = h.b.netfilter().register_hook(Hook::local_in, 0,
                                                  [&](net::Packet&) {
                                                    ++hook_hits;
                                                    return Verdict::drop;
                                                  });
  net::Packet p = net::make_udp({kAddrA, 1234}, {kAddrB, 5000}, Buffer{9});
  h.b.reinject(std::move(p));
  EXPECT_EQ(hook_hits, 0);  // okfn() path skips LOCAL_IN
  EXPECT_EQ(server->pending(), 1u);
}

}  // namespace
}  // namespace dvemig::stack
