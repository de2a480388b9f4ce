// Unit tests for src/net: addressing, packet checksums (incl. the RFC 1624
// incremental update), link timing and fault verdicts, the cluster switch, the
// broadcast router and allocation-free link hops.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "src/net/checksum.hpp"
#include "src/net/link.hpp"
#include "src/net/packet.hpp"
#include "src/net/router.hpp"
#include "src/net/switch.hpp"

// Counting global allocator, in this test binary only: the allocation test at
// the end reads it around a window of packet hops.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once it inlines this pair, but
// here operator new is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dvemig::net {
namespace {

TEST(AddressTest, OctetsAndToString) {
  const Ipv4Addr a = Ipv4Addr::octets(192, 168, 1, 10);
  EXPECT_EQ(a.value, 0xC0A8010Au);
  EXPECT_EQ(a.to_string(), "192.168.1.10");
  EXPECT_TRUE(Ipv4Addr::broadcast().is_broadcast());
  EXPECT_FALSE(a.is_broadcast());
}

TEST(AddressTest, EndpointEquality) {
  const Endpoint a{Ipv4Addr::octets(1, 2, 3, 4), 80};
  const Endpoint b{Ipv4Addr::octets(1, 2, 3, 4), 80};
  const Endpoint c{Ipv4Addr::octets(1, 2, 3, 4), 81};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_string(), "1.2.3.4:80");
}

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const Buffer data{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xDDF2 & 0xFFFF));
}

TEST(ChecksumTest, OddLengthHandled) {
  const Buffer data{0xAB};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xAB00 & 0xFFFF));
}

TEST(ChecksumTest, IncrementalAdjustMatchesRecompute) {
  // Changing a 32-bit address field and fixing up incrementally must equal a
  // from-scratch recompute — this is what the translation filter depends on.
  Packet p = make_udp({Ipv4Addr::octets(10, 0, 0, 1), 1111},
                      {Ipv4Addr::octets(10, 0, 0, 2), 2222}, Buffer(37, 0x5C));
  ASSERT_TRUE(checksum_ok(p));
  const Ipv4Addr new_dst = Ipv4Addr::octets(10, 0, 0, 77);
  p.checksum = checksum_adjust32(p.checksum, p.dst.value, new_dst.value);
  p.dst = new_dst;
  EXPECT_TRUE(checksum_ok(p));
}

TEST(ChecksumTest, IncrementalAdjustSourceAddress) {
  TcpHeader hdr;
  hdr.seq = 1000;
  hdr.flags = tcp_flags::ack;
  Packet p = make_tcp({Ipv4Addr::octets(192, 168, 1, 11), 3306},
                      {Ipv4Addr::octets(192, 168, 1, 12), 45000}, hdr,
                      Buffer(64, 0x42));
  ASSERT_TRUE(checksum_ok(p));
  const Ipv4Addr new_src = Ipv4Addr::octets(192, 168, 1, 13);
  p.checksum = checksum_adjust32(p.checksum, p.src.value, new_src.value);
  p.src = new_src;
  EXPECT_TRUE(checksum_ok(p));
}

TEST(PacketTest, ChecksumDetectsCorruption) {
  Packet p = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 5}, {Ipv4Addr::octets(2, 2, 2, 2), 6},
                      Buffer{1, 2, 3});
  EXPECT_TRUE(checksum_ok(p));
  p.payload[1] ^= 0xFF;
  EXPECT_FALSE(checksum_ok(p));
  p.payload[1] ^= 0xFF;
  p.dst = Ipv4Addr::octets(9, 9, 9, 9);  // pseudo-header covered too
  EXPECT_FALSE(checksum_ok(p));
}

TEST(PacketTest, WireSizeIncludesOverheadAndPadding) {
  Packet small = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 5},
                          {Ipv4Addr::octets(2, 2, 2, 2), 6}, Buffer{});
  EXPECT_EQ(small.wire_size(), 84u);  // padded to 64B frame + 20B preamble/IFG
  Packet big = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 5},
                        {Ipv4Addr::octets(2, 2, 2, 2), 6}, Buffer(1000, 0));
  EXPECT_EQ(big.wire_size(), 1000 + 8 + 20 + 18 + 20u);
}

TEST(PacketTest, TcpHeaderFlagsAndDescribe) {
  TcpHeader hdr;
  hdr.flags = tcp_flags::syn | tcp_flags::ack;
  EXPECT_TRUE(hdr.has(tcp_flags::syn));
  EXPECT_TRUE(hdr.has(tcp_flags::ack));
  EXPECT_FALSE(hdr.has(tcp_flags::fin));
  Packet p = make_tcp({Ipv4Addr::octets(1, 1, 1, 1), 80},
                      {Ipv4Addr::octets(2, 2, 2, 2), 90}, hdr, {});
  EXPECT_NE(p.describe().find("[SA]"), std::string::npos);
}

TEST(PacketTest, UniqueTraceIds) {
  const Packet a = make_udp({{}, 1}, {Ipv4Addr::octets(1, 0, 0, 1), 2}, {});
  const Packet b = make_udp({{}, 1}, {Ipv4Addr::octets(1, 0, 0, 1), 2}, {});
  EXPECT_NE(a.id, b.id);
}

// ---------------------------------------------------------------- Link

TEST(LinkTest, DeliveryTimeIsSerializationPlusLatency) {
  sim::Engine engine;
  Link link(engine, LinkConfig{1e9, SimTime::microseconds(25)});
  SimTime arrival{};
  link.set_sink([&](Packet) { arrival = engine.now(); });
  Packet p = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 1},
                      {Ipv4Addr::octets(2, 2, 2, 2), 2}, Buffer(1000, 0));
  const auto wire_bits = static_cast<double>(p.wire_size()) * 8.0;
  link.transmit(std::move(p));
  engine.run();
  const auto expected_ns =
      static_cast<std::int64_t>(wire_bits / 1e9 * 1e9) + 25'000;
  EXPECT_EQ(arrival.ns, expected_ns);
}

TEST(LinkTest, FifoQueueingDelaysSecondPacket) {
  sim::Engine engine;
  Link link(engine, LinkConfig{1e9, SimTime::microseconds(25)});
  std::vector<SimTime> arrivals;
  link.set_sink([&](Packet) { arrivals.push_back(engine.now()); });
  for (int i = 0; i < 3; ++i) {
    link.transmit(make_udp({Ipv4Addr::octets(1, 1, 1, 1), 1},
                           {Ipv4Addr::octets(2, 2, 2, 2), 2}, Buffer(1000, 0)));
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const SimDuration gap1 = arrivals[1] - arrivals[0];
  const SimDuration gap2 = arrivals[2] - arrivals[1];
  EXPECT_EQ(gap1, gap2);           // back-to-back at line rate
  EXPECT_GT(gap1.ns, 8000);        // ~8.6 us serialization of 1086B
  EXPECT_EQ(link.packets_sent(), 3u);
}

TEST(LinkTest, UnconnectedLinkDropsWithoutCrash) {
  sim::Engine engine;
  Link link(engine, LinkConfig{});
  link.transmit(make_udp({{}, 1}, {Ipv4Addr::octets(1, 0, 0, 1), 2}, {}));
  engine.run();
  EXPECT_EQ(link.packets_sent(), 1u);
}

// Installs a fixed verdict as the process-wide fault hook for one test.
class FixedFault : public Link::FaultHook {
 public:
  explicit FixedFault(Link::FaultVerdict verdict) : verdict_(verdict) {
    Link::set_fault_hook(this);
  }
  ~FixedFault() override { Link::set_fault_hook(nullptr); }
  Link::FaultVerdict on_transmit(const Link&, const Packet&) override { return verdict_; }

 private:
  Link::FaultVerdict verdict_;
};

struct Arrival {
  SimTime at;
  Packet packet;
};

// One 1000-byte datagram over a fresh GbE link under `verdict`; returns what
// arrived, when, and the link's parked count after the run.
struct FaultRun {
  std::vector<Arrival> arrivals;
  Packet sent;
  SimTime clean_arrival;   // serialization + latency, no fault
  SimDuration serialization;
  std::size_t in_flight_after{0};
};

FaultRun run_with_fault(Link::FaultVerdict verdict) {
  sim::Engine engine;
  Link link(engine, LinkConfig{1e9, SimTime::microseconds(25)});
  FaultRun run;
  link.set_sink([&](Packet&& p) { run.arrivals.push_back({engine.now(), std::move(p)}); });
  run.sent = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 1}, {Ipv4Addr::octets(2, 2, 2, 2), 2},
                      Buffer(1000, 0x33));
  // The link's own arithmetic, so the expected times match to the nanosecond.
  run.serialization = SimTime::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(run.sent.wire_size()) * 8.0 / 1e9 * 1e9));
  run.clean_arrival = run.serialization + SimTime::microseconds(25);
  {
    const FixedFault hook(verdict);
    link.transmit(Packet(run.sent));
  }
  engine.run();
  run.in_flight_after = link.in_flight();
  return run;
}

TEST(LinkFaultTest, DropDeliversNothing) {
  const FaultRun run = run_with_fault({.drop = true});
  EXPECT_TRUE(run.arrivals.empty());
  EXPECT_EQ(run.in_flight_after, 0u);
}

TEST(LinkFaultTest, DuplicateDeliversEqualCopyOneSerializationSlotLater) {
  const FaultRun run = run_with_fault({.duplicate = true});
  ASSERT_EQ(run.arrivals.size(), 2u);
  EXPECT_EQ(run.arrivals[0].at, run.clean_arrival);
  EXPECT_EQ(run.arrivals[1].at, run.clean_arrival + run.serialization);
  for (const Arrival& a : run.arrivals) {
    EXPECT_EQ(a.packet.id, run.sent.id);
    EXPECT_EQ(a.packet.checksum, run.sent.checksum);
    EXPECT_EQ(a.packet.payload.copy(), run.sent.payload.copy());
  }
  EXPECT_EQ(run.in_flight_after, 0u);
}

TEST(LinkFaultTest, ExtraDelayShiftsArrivalExactly) {
  const SimDuration delay = SimTime::microseconds(137);
  const FaultRun run = run_with_fault({.extra_delay = delay});
  ASSERT_EQ(run.arrivals.size(), 1u);
  EXPECT_EQ(run.arrivals[0].at, run.clean_arrival + delay);
  EXPECT_EQ(run.arrivals[0].packet.id, run.sent.id);
  EXPECT_EQ(run.in_flight_after, 0u);
}

// The model checker's choice hook may fire the later of two deliveries on one
// link first. That delivery must carry the later packet: each event is bound
// to its own slot, not to the head of a FIFO.
TEST(LinkChoiceTest, LaterDeliveryFiredFirstCarriesItsOwnPacket) {
  sim::Engine engine;
  Link link(engine, LinkConfig{1e9, SimTime::microseconds(25)});
  std::vector<std::uint64_t> delivered;
  link.set_sink([&](Packet&& p) { delivered.push_back(p.id); });
  Packet first = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 1},
                          {Ipv4Addr::octets(2, 2, 2, 2), 2}, Buffer(100, 1));
  Packet second = make_udp({Ipv4Addr::octets(1, 1, 1, 1), 1},
                           {Ipv4Addr::octets(2, 2, 2, 2), 2}, Buffer(100, 2));
  const std::uint64_t first_id = first.id;
  const std::uint64_t second_id = second.id;
  link.transmit(std::move(first));
  link.transmit(std::move(second));
  // Always pick the latest member of a ready set wide enough to hold both.
  engine.set_choice_hook([](std::size_t n) { return n - 1; }, SimTime::milliseconds(1));
  engine.run();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{second_id, first_id}));
  EXPECT_EQ(link.in_flight(), 0u);
}

// ---------------------------------------------------------------- Switch

Packet mk(Ipv4Addr src, Ipv4Addr dst) {
  return make_udp({src, 100}, {dst, 200}, Buffer(10, 0));
}

TEST(SwitchTest, UnicastForwardsOnlyToDestination) {
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  const Ipv4Addr b = Ipv4Addr::octets(10, 0, 0, 2);
  const Ipv4Addr c = Ipv4Addr::octets(10, 0, 0, 3);
  int got_b = 0, got_c = 0;
  auto tx_a = sw.attach(a, [](Packet) { FAIL() << "a should receive nothing"; });
  sw.attach(b, [&](Packet) { ++got_b; });
  sw.attach(c, [&](Packet) { ++got_c; });
  tx_a(mk(a, b));
  engine.run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
}

TEST(SwitchTest, BroadcastFloodsAllExceptSender) {
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  int received = 0;
  auto tx_a = sw.attach(a, [&](Packet) { ++received; });  // must NOT hear itself
  for (int i = 2; i <= 4; ++i) {
    sw.attach(Ipv4Addr::octets(10, 0, 0, static_cast<std::uint8_t>(i)),
              [&](Packet) { ++received; });
  }
  tx_a(mk(a, Ipv4Addr::broadcast()));
  engine.run();
  EXPECT_EQ(received, 3);
}

TEST(SwitchTest, UnroutableDropped) {
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  auto tx_a = sw.attach(a, [](Packet) {});
  tx_a(mk(a, Ipv4Addr::octets(10, 0, 0, 99)));
  engine.run();
  EXPECT_EQ(sw.dropped_unroutable(), 1u);
}

TEST(SwitchTest, DetachStopsDelivery) {
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  const Ipv4Addr b = Ipv4Addr::octets(10, 0, 0, 2);
  int got = 0;
  auto tx_a = sw.attach(a, [](Packet) {});
  sw.attach(b, [&](Packet) { ++got; });
  sw.detach(b);
  EXPECT_FALSE(sw.attached(b));
  tx_a(mk(a, b));
  engine.run();
  EXPECT_EQ(got, 0);
}

TEST(SwitchTest, LinkDstOverridesIpDestination) {
  // A stale destination-cache entry steers the frame to the wrong port even
  // though the IP header names the right host — the Section V-D hazard.
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  const Ipv4Addr b = Ipv4Addr::octets(10, 0, 0, 2);
  const Ipv4Addr c = Ipv4Addr::octets(10, 0, 0, 3);
  int got_b = 0, got_c = 0;
  auto tx_a = sw.attach(a, [](Packet) {});
  sw.attach(b, [&](Packet) { ++got_b; });
  sw.attach(c, [&](Packet) { ++got_c; });
  Packet p = mk(a, b);
  p.link_dst = c;  // stale cache points at c
  tx_a(std::move(p));
  engine.run();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_c, 1);
}

// ---------------------------------------------------------------- Router

TEST(RouterTest, ClientPacketBroadcastToAllNodes) {
  sim::Engine engine;
  const Ipv4Addr vip = Ipv4Addr::octets(203, 0, 113, 10);
  BroadcastRouter router(engine, vip, LinkConfig{});
  int copies = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    router.attach_node(i, [&](Packet) { ++copies; });
  }
  const Ipv4Addr cli = Ipv4Addr::octets(100, 64, 0, 1);
  auto tx = router.attach_client(cli, [](Packet) {});
  tx(mk(cli, vip));
  engine.run();
  EXPECT_EQ(copies, 5);  // the defining single-IP-cluster property
  EXPECT_EQ(router.broadcast_copies(), 5u);
}

TEST(RouterTest, NodePacketReachesOnlyTargetClient) {
  sim::Engine engine;
  const Ipv4Addr vip = Ipv4Addr::octets(203, 0, 113, 10);
  BroadcastRouter router(engine, vip, LinkConfig{});
  auto node_tx = router.attach_node(0, [](Packet) {});
  const Ipv4Addr c1 = Ipv4Addr::octets(100, 64, 0, 1);
  const Ipv4Addr c2 = Ipv4Addr::octets(100, 64, 0, 2);
  int got1 = 0, got2 = 0;
  router.attach_client(c1, [&](Packet) { ++got1; });
  router.attach_client(c2, [&](Packet) { ++got2; });
  node_tx(mk(vip, c1));
  engine.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 0);
}

TEST(RouterTest, PacketForOtherDestinationDropped) {
  sim::Engine engine;
  const Ipv4Addr vip = Ipv4Addr::octets(203, 0, 113, 10);
  BroadcastRouter router(engine, vip, LinkConfig{});
  int copies = 0;
  router.attach_node(0, [&](Packet) { ++copies; });
  const Ipv4Addr cli = Ipv4Addr::octets(100, 64, 0, 1);
  auto tx = router.attach_client(cli, [](Packet) {});
  tx(mk(cli, Ipv4Addr::octets(8, 8, 8, 8)));  // not the cluster VIP
  engine.run();
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(router.dropped(), 1u);
}

TEST(RouterTest, DetachedNodeStopsReceivingBroadcasts) {
  sim::Engine engine;
  const Ipv4Addr vip = Ipv4Addr::octets(203, 0, 113, 10);
  BroadcastRouter router(engine, vip, LinkConfig{});
  int copies = 0;
  router.attach_node(0, [&](Packet) { ++copies; });
  router.attach_node(1, [&](Packet) { ++copies; });
  router.detach_node(1);
  const Ipv4Addr cli = Ipv4Addr::octets(100, 64, 0, 1);
  auto tx = router.attach_client(cli, [](Packet) {});
  tx(mk(cli, vip));
  engine.run();
  EXPECT_EQ(copies, 1);
}

// ---------------------------------------------------------------- allocation

// After warm-up, a packet crosses host -> Switch -> host and client ->
// BroadcastRouter -> 3 nodes without touching the heap: each delivery event
// holds a link pointer and a slot index, which std::function stores inline,
// and the packets wait in the links' slot arrays.
TEST(NetAllocTest, SwitchAndRouterHopsAllocateNothingAfterWarmUp) {
  sim::Engine engine;
  Switch sw(engine, LinkConfig{});
  const Ipv4Addr a = Ipv4Addr::octets(10, 0, 0, 1);
  const Ipv4Addr b = Ipv4Addr::octets(10, 0, 0, 2);
  int to_b = 0;
  auto tx_a = sw.attach(a, [](Packet&&) {});
  sw.attach(b, [&](Packet&&) { ++to_b; });

  const Ipv4Addr vip = Ipv4Addr::octets(203, 0, 113, 10);
  BroadcastRouter router(engine, vip, LinkConfig{});
  int to_nodes = 0;
  for (std::uint32_t i = 0; i < 3; ++i) router.attach_node(i, [&](Packet&&) { ++to_nodes; });
  const Ipv4Addr cli = Ipv4Addr::octets(100, 64, 0, 1);
  auto tx_cli = router.attach_client(cli, [](Packet&&) {});

  // Copies of a one-block packet share the block: copying allocates nothing.
  const Packet host_pkt = mk(a, b);
  const Packet client_pkt = mk(cli, vip);
  const auto burst = [&] {
    for (int i = 0; i < 4; ++i) {
      tx_a(Packet(host_pkt));
      tx_cli(Packet(client_pkt));
    }
    engine.run();
  };
  for (int i = 0; i < 100; ++i) burst();
  const std::size_t before = g_allocations;
  for (int i = 0; i < 2'000; ++i) burst();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(to_b, 2'100 * 4);
  EXPECT_EQ(to_nodes, 2'100 * 4 * 3);
}

}  // namespace
}  // namespace dvemig::net
