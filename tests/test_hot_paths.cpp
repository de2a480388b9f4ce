// Connection-scale hot paths (DESIGN.md §12): the capture/translation filter
// indexes, the open-addressed ehash, the netfilter lazy prune, copy-on-write
// packet payloads, the in-place serialization writer primitives, and the
// registry-reset-safe metric handles. Each index also carries a property test
// against a reference: the pre-index linear-scan semantics modelled in
// filter_oracles.hpp, or an ordered std::map.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "filter_oracles.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/mig/capture.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/socket_image.hpp"
#include "src/mig/translation.hpp"
#include "src/net/checksum.hpp"
#include "src/net/router.hpp"
#include "src/net/switch.hpp"
#include "src/obs/metrics.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/socket_table.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig::mig {
namespace {

using stack::NetStack;

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);
const net::Ipv4Addr kAddrC = net::Ipv4Addr::octets(10, 0, 0, 3);
const net::Ipv4Addr kAddrD = net::Ipv4Addr::octets(10, 0, 0, 4);

struct TwoHosts {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  NetStack a{engine, "hostA", SimTime::seconds(100)};
  NetStack b{engine, "hostB", SimTime::seconds(350)};

  TwoHosts() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
  }
};

// ------------------------------------------------------- netfilter lazy prune

TEST(NetfilterPruneTest, SelfReleaseDuringRunIsSafeAndSweptLater) {
  stack::NetfilterChain nf;
  int first_runs = 0, second_runs = 0;
  stack::HookHandle h1, h2;
  h1 = nf.register_hook(stack::Hook::local_in, 0, [&](net::Packet&) {
    first_runs += 1;
    h1.release();  // a hook tearing itself down mid-run
    return stack::Verdict::accept;
  });
  h2 = nf.register_hook(stack::Hook::local_in, 10, [&](net::Packet&) {
    second_runs += 1;
    return stack::Verdict::accept;
  });

  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1});
  EXPECT_EQ(nf.run(stack::Hook::local_in, p), stack::Verdict::accept);
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 1);  // the chain kept running past the self-release
  EXPECT_FALSE(h1.registered());
  EXPECT_EQ(nf.hook_count(stack::Hook::local_in), 1u);

  // Next run compacts the dead entry and never calls it again.
  EXPECT_EQ(nf.run(stack::Hook::local_in, p), stack::Verdict::accept);
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 2);
  h2.release();
}

TEST(NetfilterPruneTest, ReleaseOfLaterHookDuringRunSkipsItSamePass) {
  stack::NetfilterChain nf;
  int later_runs = 0;
  stack::HookHandle killer, victim;
  killer = nf.register_hook(stack::Hook::local_out, 0, [&](net::Packet&) {
    victim.release();  // releases a hook *behind* it in the same pass
    return stack::Verdict::accept;
  });
  victim = nf.register_hook(stack::Hook::local_out, 10, [&](net::Packet&) {
    later_runs += 1;
    return stack::Verdict::accept;
  });
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1});
  nf.run(stack::Hook::local_out, p);
  EXPECT_EQ(later_runs, 0);  // the alive flag stops it within the same pass
  nf.run(stack::Hook::local_out, p);
  EXPECT_EQ(later_runs, 0);
  killer.release();
}

TEST(NetfilterPruneTest, RegistrationAfterReleasesKeepsOrderAndCount) {
  stack::NetfilterChain nf;
  std::vector<int> order;
  auto mk = [&](int tag, int prio) {
    return nf.register_hook(stack::Hook::local_in, prio, [&order, tag](net::Packet&) {
      order.push_back(tag);
      return stack::Verdict::accept;
    });
  };
  stack::HookHandle h1 = mk(1, 0), h2 = mk(2, 5), h3 = mk(3, 10);
  h2.release();
  // Registration compacts the pending release, then inserts in priority order.
  stack::HookHandle h4 = mk(4, 7);
  EXPECT_EQ(nf.hook_count(stack::Hook::local_in), 3u);
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1});
  nf.run(stack::Hook::local_in, p);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3}));
  h1.release();
  h3.release();
  h4.release();
}

// --------------------------------------------------------- checksum equivalence

// The historical checksum implementation serialized pseudo-header + transport
// header + payload into a scratch buffer and folded that. Rebuild that exact
// byte stream here and check the word-wide kernel with its memoized payload
// sums agrees on it, against an independent byte-at-a-time fold.

/// RFC 1071 by the letter: big-endian 16-bit words one byte at a time, an odd
/// last byte padded with zero, end-around carries, complement.
std::uint16_t reference_fold(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    sum += i % 2 == 0 ? std::uint64_t{data[i]} << 8 : std::uint64_t{data[i]};
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

Buffer reference_checksum_input(const net::Packet& p) {
  Buffer b;
  auto be32 = [&](std::uint32_t v) {
    b.push_back(static_cast<std::uint8_t>(v >> 24));
    b.push_back(static_cast<std::uint8_t>(v >> 16));
    b.push_back(static_cast<std::uint8_t>(v >> 8));
    b.push_back(static_cast<std::uint8_t>(v));
  };
  auto le16 = [&](std::uint16_t v) {
    b.push_back(static_cast<std::uint8_t>(v));
    b.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  auto le32 = [&](std::uint32_t v) {
    b.push_back(static_cast<std::uint8_t>(v));
    b.push_back(static_cast<std::uint8_t>(v >> 8));
    b.push_back(static_cast<std::uint8_t>(v >> 16));
    b.push_back(static_cast<std::uint8_t>(v >> 24));
  };
  be32(p.src.value);
  be32(p.dst.value);
  b.push_back(0);
  b.push_back(static_cast<std::uint8_t>(p.proto));
  le16(static_cast<std::uint16_t>(p.transport_size()));
  if (p.proto == net::IpProto::tcp) {
    le16(p.tcp.sport);
    le16(p.tcp.dport);
    le32(p.tcp.seq);
    le32(p.tcp.ack);
    b.push_back(p.tcp.flags);
    le32(p.tcp.window);
    le32(p.tcp.tsval);
    le32(p.tcp.tsecr);
  } else {
    le16(p.udp.sport);
    le16(p.udp.dport);
    le16(static_cast<std::uint16_t>(p.payload.size()));
  }
  const auto payload = p.payload.view();
  b.insert(b.end(), payload.begin(), payload.end());
  return b;
}

TEST(ChecksumTest, InPlaceAccumulatorMatchesBufferedReference) {
  // Odd/even payload lengths exercise the odd-tail and realignment paths (the
  // TCP payload starts at odd offset 37 in the historical stream).
  for (const std::size_t len : {0u, 1u, 2u, 3u, 32u, 33u, 255u}) {
    Buffer payload(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    net::TcpHeader hdr;
    hdr.seq = 0xDEADBEEF;
    hdr.ack = 0x12345678;
    hdr.flags = net::tcp_flags::ack | net::tcp_flags::psh;
    hdr.tsval = 111;
    hdr.tsecr = 222;
    net::Packet t = net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, payload);
    EXPECT_EQ(net::compute_checksum(t), reference_fold(reference_checksum_input(t)))
        << "tcp payload len " << len;
    net::Packet u = net::make_udp({kAddrA, 1111}, {kAddrB, 9000}, payload);
    EXPECT_EQ(net::compute_checksum(u), reference_fold(reference_checksum_input(u)))
        << "udp payload len " << len;
  }
}

// The kernel on its own: every length across the 8-byte step and its tail,
// from an odd start address (data()+1), with and without a running sum, and
// the two extreme fills whose sums wrap the most.
TEST(ChecksumTest, KernelMatchesByteWiseFoldAtAnyOffsetAndLength) {
  std::mt19937_64 rng(26);
  Buffer bytes(1 + 1500);  // the longest span, from data()+1
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= 1500; len += len < 64 ? 1 : 37) {
    for (const std::size_t start : {0u, 1u}) {
      const std::span<const std::uint8_t> span(bytes.data() + start, len);
      ASSERT_EQ(net::internet_checksum(span), reference_fold(span))
          << "len " << len << " start " << start;
      // A running sum in front of the span, as the header sum is: the
      // reference sees the same two bytes prepended to the stream.
      const Buffer prefixed = [&] {
        Buffer b{0xBE, 0xEF};
        b.insert(b.end(), span.begin(), span.end());
        return b;
      }();
      ASSERT_EQ(net::fold_checksum(net::checksum_accumulate(span, 0xBEEF)),
                reference_fold(prefixed))
          << "len " << len << " start " << start;
    }
    for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
      const Buffer flat(len, fill);
      ASSERT_EQ(net::internet_checksum(flat), reference_fold(flat))
          << "len " << len << " fill " << int{fill};
    }
  }
}

net::Packet random_packet(std::mt19937_64& rng) {
  const auto u32 = [&] { return static_cast<std::uint32_t>(rng()); };
  const std::size_t len = rng() % 1501;
  Buffer payload(len);
  switch (rng() % 4) {
    case 0:
      std::fill(payload.begin(), payload.end(), std::uint8_t{0x00});
      break;
    case 1:
      std::fill(payload.begin(), payload.end(), std::uint8_t{0xFF});
      break;
    default:
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  }
  const net::Endpoint from{net::Ipv4Addr{u32()}, static_cast<net::Port>(rng())};
  const net::Endpoint to{net::Ipv4Addr{u32()}, static_cast<net::Port>(rng())};
  if (rng() % 2 == 0) return net::make_udp(from, to, std::move(payload));
  net::TcpHeader hdr;
  hdr.seq = u32();
  hdr.ack = u32();
  hdr.flags = static_cast<std::uint8_t>(rng());
  hdr.window = u32();
  hdr.tsval = u32();
  hdr.tsecr = u32();
  return net::make_tcp(from, to, hdr, std::move(payload));
}

std::uint16_t reference_checksum(const net::Packet& p) {
  return reference_fold(reference_checksum_input(p));
}

// The memoized payload sum against the byte-wise reference, over random TCP
// and UDP packets and through everything that may or may not reuse a memo:
// a translation rewrite, a broadcast copy's COW detach, a sole owner's
// in-place write and a push_back.
TEST(ChecksumTest, PropertyMemoizedSumEqualsByteWiseReference) {
  std::mt19937_64 rng(1071);
  for (int iter = 0; iter < 2000; ++iter) {
    net::Packet p = random_packet(rng);
    SCOPED_TRACE(p.describe());
    ASSERT_EQ(p.checksum, reference_checksum(p));  // finalize filled the memo
    ASSERT_TRUE(net::checksum_ok(p));              // and the check reused it

    // RFC 1624 rewrite of the destination, as the translation filter does.
    net::Packet moved = p;
    const std::uint32_t old_dst = moved.dst.value;
    moved.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    moved.checksum = net::checksum_adjust32(moved.checksum, old_dst, moved.dst.value);
    ASSERT_EQ(moved.checksum, reference_checksum(moved));
    ASSERT_TRUE(net::checksum_ok(moved));
    if (p.payload.empty()) continue;

    // A broadcast copy mutated: it detaches, and only it fails the check.
    net::Packet q = p;
    q.payload[0] ^= 1;
    EXPECT_FALSE(p.payload.shares_storage_with(q.payload));
    EXPECT_FALSE(net::checksum_ok(q));
    EXPECT_EQ(net::compute_checksum(q), reference_checksum(q));
    EXPECT_TRUE(net::checksum_ok(p));

    // A sole owner's in-place write after the memo was filled: no copy is
    // made, and the memo must still be dropped.
    const std::uint8_t* storage = q.payload.view().data();
    const std::size_t at = rng() % q.payload.size();
    q.payload[at] = static_cast<std::uint8_t>(q.payload[at] + 1);
    EXPECT_EQ(q.payload.view().data(), storage);
    EXPECT_EQ(net::compute_checksum(q), reference_checksum(q));

    // Growth changes the sum and, for UDP, the length field as well.
    q.payload.push_back(static_cast<std::uint8_t>(rng() | 1));
    EXPECT_EQ(net::compute_checksum(q), reference_checksum(q));
    net::finalize(q);
    EXPECT_TRUE(net::checksum_ok(q));
  }
}

// Each payload is summed exactly once however many stacks check it: the
// sender's finalize fills the memo, and the router's broadcast copies, every
// node's receive check and a captured packet's reinjection all reuse it.
TEST(ChecksumTest, BroadcastPathSumsEachPayloadOnce) {
  sim::Engine engine;
  const net::Ipv4Addr vip = net::Ipv4Addr::octets(203, 0, 113, 10);
  const net::Ipv4Addr cli = net::Ipv4Addr::octets(100, 64, 0, 1);
  net::BroadcastRouter router(engine, vip, net::LinkConfig{1e9, SimTime::microseconds(25)});
  std::vector<std::unique_ptr<NetStack>> nodes;
  for (std::uint32_t i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<NetStack>(engine, "node" + std::to_string(i),
                                               SimTime::seconds(100 + i)));
    NetStack* node = nodes.back().get();
    node->add_interface(vip, router.attach_node(i, [node](net::Packet p) {
      node->rx(std::move(p));
    }));
  }
  NetStack client(engine, "client", SimTime::seconds(7));
  client.add_interface(cli, router.attach_client(cli, [&client](net::Packet p) {
    client.rx(std::move(p));
  }));

  auto server = nodes[0]->make_udp();
  server->bind(vip, 27960);
  // Capture-and-reinject on the owning node: steal the first datagram, hand
  // it back past LOCAL_IN once the rest have arrived.
  std::vector<net::Packet> held;
  stack::HookHandle capture = nodes[0]->netfilter().register_hook(
      stack::Hook::local_in, 0, [&held](net::Packet& p) {
        if (!held.empty()) return stack::Verdict::accept;
        held.push_back(std::move(p));
        return stack::Verdict::stolen;
      });

  const std::uint64_t summed_before = net::payload_bytes_summed();
  auto sender = client.make_udp();
  sender->bind(cli, 5000);
  std::uint64_t created = 0;
  const std::size_t sizes[] = {1, 2, 37, 64, 511, 1024, 1500, 0, 999};
  for (const std::size_t len : sizes) {
    Buffer payload(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::uint8_t>(i * 13 + len);
    created += len;
    sender->send_to({vip, 27960}, std::move(payload));
  }
  engine.run();
  ASSERT_EQ(held.size(), 1u);
  capture.release();
  nodes[0]->reinject(std::move(held.front()));
  engine.run();

  EXPECT_EQ(router.broadcast_copies(), 3 * std::size(sizes));
  EXPECT_EQ(server->pending(), std::size(sizes));
  EXPECT_EQ(nodes[0]->stats().reinjected, 1u);
  for (const auto& node : nodes) EXPECT_EQ(node->stats().rx_bad_checksum, 0u);
  EXPECT_EQ(nodes[1]->stats().rx_no_socket, std::size(sizes));
  EXPECT_EQ(net::payload_bytes_summed() - summed_before, created);
}

TEST(ChecksumTest, IncrementalAdjustEqualsFullRecompute) {
  // RFC 1624 update after an address rewrite (exactly what the translation
  // filter does) must land on the same checksum as re-summing the packet.
  for (const std::size_t len : {0u, 15u, 64u}) {
    net::TcpHeader hdr;
    hdr.flags = net::tcp_flags::ack;
    hdr.seq = 42;
    net::Packet p = net::make_tcp({kAddrC, 3306}, {kAddrA, 45000}, hdr, Buffer(len, 9));
    ASSERT_TRUE(net::checksum_ok(p));

    net::Packet out = p;  // LOCAL_OUT rewrite: dst A -> B
    const std::uint32_t old_dst = out.dst.value;
    out.dst = kAddrB;
    out.checksum = net::checksum_adjust32(out.checksum, old_dst, out.dst.value);
    EXPECT_EQ(out.checksum, net::compute_checksum(out)) << "len " << len;

    net::Packet in = p;  // LOCAL_IN rewrite: src C -> D
    const std::uint32_t old_src = in.src.value;
    in.src = kAddrD;
    in.checksum = net::checksum_adjust32(in.checksum, old_src, in.src.value);
    EXPECT_EQ(in.checksum, net::compute_checksum(in)) << "len " << len;
  }
}

// ------------------------------------------------- registry-reset-safe handles

TEST(MetricHandleTest, CounterRefSurvivesRegistryReset) {
  obs::CounterRef ref("test.hot_paths.counter");
  ref.get().add(3);
  EXPECT_EQ(ref.get().value(), 3u);

  obs::Registry::instance().reset();
  // reset() zeroes values but keeps registrations: the cached handle stays
  // valid and usable without rebinding.
  EXPECT_EQ(ref.get().value(), 0u);
  ref.get().add(1);
  EXPECT_EQ(ref.get().value(), 1u);

  obs::Counter* before = &ref.get();
  ref.rebind();
  EXPECT_EQ(&ref.get(), before);  // re-resolves to the very same object
}

TEST(MetricHandleTest, HistogramRefSurvivesRegistryReset) {
  obs::HistogramRef ref("test.hot_paths.hist", {1.0, 10.0});
  ref.get().record(5.0);
  EXPECT_EQ(ref.get().count(), 1u);
  obs::Registry::instance().reset();
  EXPECT_EQ(ref.get().count(), 0u);
  ref.get().record(0.5);
  EXPECT_EQ(ref.get().count(), 1u);
  obs::Histogram* before = &ref.get();
  ref.rebind();
  EXPECT_EQ(&ref.get(), before);
}

// ---------------------------------------------------------- COW packet payload

TEST(SharedPayloadTest, PacketCopiesShareUntilMutation) {
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1, 2, 3});
  net::Packet q = p;  // the broadcast router's per-node copy
  EXPECT_TRUE(p.payload.shares_storage_with(q.payload));

  q.payload[0] = 99;  // mutation detaches the mutating copy only
  EXPECT_FALSE(p.payload.shares_storage_with(q.payload));
  EXPECT_EQ(p.payload[0], 1);
  EXPECT_EQ(q.payload[0], 99);
}

TEST(SharedPayloadTest, TakeMovesWhenSoleOwnerCopiesWhenShared) {
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{4, 5});
  net::Packet q = p;
  const Buffer from_shared = q.payload.take();  // copies: p still holds bytes
  EXPECT_EQ(from_shared, (Buffer{4, 5}));
  EXPECT_TRUE(q.payload.empty());
  EXPECT_EQ(p.payload.size(), 2u);

  const Buffer from_sole = p.payload.take();  // sole owner: moves out
  EXPECT_EQ(from_sole, (Buffer{4, 5}));
  EXPECT_TRUE(p.payload.empty());

  net::Packet r = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{7});
  EXPECT_EQ(r.payload.copy(), Buffer{7});  // deep copy leaves payload intact
  EXPECT_EQ(r.payload.size(), 1u);
}

// ------------------------------------------------- BinaryWriter patch/rollback

TEST(BinaryWriterTest, MarkPatchTruncateSpanFrom) {
  BinaryWriter w;
  w.reserve(64);
  const std::size_t count_at = w.mark();
  w.u32(0);  // placeholder, back-patched below
  w.u8(0xAA);
  const std::size_t section_at = w.mark();
  w.u32(0x11223344);
  EXPECT_EQ(w.span_from(section_at).size(), 4u);
  EXPECT_EQ(w.span_from(section_at)[0], 0x44);  // little-endian

  w.truncate_to(section_at);  // roll the section back
  EXPECT_EQ(w.size(), 5u);
  w.patch_u32(7, count_at);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u8(), 0xAA);
  EXPECT_EQ(r.remaining(), 0u);

  w.clear();
  EXPECT_EQ(w.size(), 0u);
}

// ------------------------------------------------------------- capture index

TEST(CaptureIndexTest, ExactAndWildcardTiersBothCapture) {
  TwoHosts h;
  CaptureManager cap(h.b);
  const std::uint64_t s = cap.begin_session();
  cap.add_spec(s, CaptureSpec{net::IpProto::tcp, true, net::Endpoint{kAddrA, 1111}, 9000});
  cap.add_spec(s, CaptureSpec{net::IpProto::tcp, false, {}, 9000});

  net::TcpHeader hdr;
  hdr.seq = 100;
  hdr.flags = net::tcp_flags::ack;
  // Exact-tier hit and wildcard-tier hit (unknown remote) both steal.
  h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer{1}));
  h.b.rx(net::make_tcp({kAddrC, 2222}, {kAddrB, 9000}, hdr, Buffer{2}));
  EXPECT_EQ(cap.queued(s), 2u);

  // A retransmit through either tier dedups: the session is one dedup domain.
  h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer{1}));
  h.b.rx(net::make_tcp({kAddrC, 2222}, {kAddrB, 9000}, hdr, Buffer{2}));
  EXPECT_EQ(cap.queued(s), 2u);
  EXPECT_EQ(cap.total_deduplicated(), 2u);
  cap.abort_session(s);
}

TEST(CaptureIndexTest, WildcardSeedsDedupOfLaterExactSpec) {
  // The iterative strategy adds specs one socket at a time: a listener's
  // wildcard spec may capture a peer's segment before the accepted child's
  // exact spec is installed. The exact spec must inherit those seen seqs, or
  // the retransmit would be queued twice.
  TwoHosts h;
  CaptureManager cap(h.b);
  const std::uint64_t s = cap.begin_session();
  cap.add_spec(s, CaptureSpec{net::IpProto::tcp, false, {}, 9000});

  net::TcpHeader hdr;
  hdr.seq = 500;
  hdr.flags = net::tcp_flags::ack;
  h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer{1}));
  EXPECT_EQ(cap.queued(s), 1u);

  cap.add_spec(s, CaptureSpec{net::IpProto::tcp, true, net::Endpoint{kAddrA, 1111}, 9000});
  h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer{1}));  // retransmit
  EXPECT_EQ(cap.queued(s), 1u);  // deduped across the tier boundary
  EXPECT_EQ(cap.total_deduplicated(), 1u);
  cap.abort_session(s);
}

TEST(CaptureIndexTest, AbortRemovesSpecsFromIndex) {
  TwoHosts h;
  CaptureManager cap(h.b);
  const std::uint64_t s1 = cap.begin_session();
  const std::uint64_t s2 = cap.begin_session();
  cap.add_spec(s1, CaptureSpec{net::IpProto::udp, false, {}, 5000});
  cap.add_spec(s2, CaptureSpec{net::IpProto::udp, false, {}, 6000});

  cap.abort_session(s1);
  const std::uint64_t before = cap.total_captured();
  h.b.rx(net::make_udp({kAddrA, 1}, {kAddrB, 5000}, Buffer{1}));  // aborted port
  EXPECT_EQ(cap.total_captured(), before);  // no stale index entry fired
  h.b.rx(net::make_udp({kAddrA, 1}, {kAddrB, 6000}, Buffer{2}));
  EXPECT_EQ(cap.queued(s2), 1u);  // the surviving session still captures
  cap.abort_session(s2);
}

TEST(CaptureIndexTest, DedupMetricsCountersPinned) {
  // The obs counters the capture path feeds must count exactly as before the
  // index: one `captured` per queued packet, one `dedup_hits` per suppressed
  // retransmit.
  obs::Registry::instance().reset();
  TwoHosts h;
  CaptureManager cap(h.b);
  const std::uint64_t s = cap.begin_session();
  cap.add_spec(s, CaptureSpec{net::IpProto::tcp, true, net::Endpoint{kAddrA, 1111}, 9000});
  net::TcpHeader hdr;
  hdr.flags = net::tcp_flags::ack;
  for (const std::uint32_t seq : {10u, 10u, 10u, 20u}) {
    hdr.seq = seq;
    h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer{1}));
  }
  const obs::Counter* captured =
      obs::Registry::instance().find_counter("capture.captured");
  const obs::Counter* dedup =
      obs::Registry::instance().find_counter("capture.dedup_hits");
  ASSERT_NE(captured, nullptr);
  ASSERT_NE(dedup, nullptr);
  EXPECT_EQ(captured->value(), 2u);
  EXPECT_EQ(dedup->value(), 2u);
  cap.abort_session(s);
}

// Property test: on a random operation sequence, the indexed matcher makes
// exactly the decisions of the pre-index linear scan (oracle::CaptureOracle):
// same verdict per packet, same queue contents and order per session, same
// captured and dedup counts. Sessions own disjoint local ports, as migrating
// processes do; specs arrive between packets, wildcard and exact mixed, the
// way the iterative strategy arms a listener before its accepted children;
// sessions finish or abort mid-stream.
using QueuedKey = std::tuple<std::uint32_t, std::uint16_t, std::uint16_t, std::uint8_t,
                             std::uint32_t, std::uint8_t>;

QueuedKey queued_key(const net::Packet& p) {
  return {p.src.value,
          p.sport(),
          p.dport(),
          static_cast<std::uint8_t>(p.proto),
          p.proto == net::IpProto::tcp ? p.tcp.seq : 0,
          p.payload[0]};
}

std::vector<QueuedKey> queued_keys(const std::vector<net::Packet>& queue) {
  std::vector<QueuedKey> keys;
  for (const net::Packet& p : queue) keys.push_back(queued_key(p));
  return keys;
}

std::map<std::uint64_t, std::vector<QueuedKey>> queued_by_session(
    const CaptureManager& cap) {
  std::map<std::uint64_t, std::vector<QueuedKey>> out;
  cap.for_each_queued([&](std::uint64_t session, const net::Packet& p) {
    out[session].push_back(queued_key(p));
  });
  return out;
}

TEST(CaptureIndexTest, PropertyIndexedEqualsLinearScan) {
  const net::Ipv4Addr remotes[] = {kAddrA, kAddrC, kAddrD};
  const std::uint16_t rports[] = {1111, 2222};
  std::uint64_t deduplicated = 0;
  // Retransmits suppressed by an exact spec although the original segment
  // was captured before that spec existed: the wildcard-to-exact dedup seed.
  std::uint64_t seeded_dedups = 0;
  int ended = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TwoHosts h;
    CaptureManager cap(h.b);
    oracle::CaptureOracle model;
    std::mt19937 rng(seed);
    auto pick_proto = [&] {
      return rng() % 4 == 0 ? net::IpProto::udp : net::IpProto::tcp;
    };
    auto pick_remote = [&] {
      return net::Endpoint{remotes[rng() % 3], rports[rng() % 2]};
    };

    struct Live {
      std::uint64_t id;
      std::uint16_t base_port;
    };
    std::vector<Live> live;
    const int sessions = 2 + static_cast<int>(rng() % 2);
    for (int k = 0; k < sessions; ++k) {
      const std::uint64_t id = cap.begin_session();
      model.begin_session(id);
      live.push_back({id, static_cast<std::uint16_t>(9000 + 2 * k)});
    }
    // TCP connections (peer, local port) with an exact spec, and TCP segments
    // (peer, local port, seq) first captured before their connection had one.
    std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t>> exact_armed;
    std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t, std::uint32_t>>
        before_exact;

    for (int step = 0; step < 600 && !live.empty(); ++step) {
      const auto op = rng() % 100;
      const std::size_t li = rng() % live.size();
      const std::uint16_t lport =
          static_cast<std::uint16_t>(live[li].base_port + rng() % 2);
      if (op < 6) {
        const CaptureSpec spec{pick_proto(), false, {}, lport};
        cap.add_spec(live[li].id, spec);
        model.add_spec(live[li].id, spec);
      } else if (op < 16) {
        const CaptureSpec spec{pick_proto(), true, pick_remote(), lport};
        cap.add_spec(live[li].id, spec);
        model.add_spec(live[li].id, spec);
        if (spec.proto == net::IpProto::tcp) {
          exact_armed.emplace(spec.remote.addr.value, spec.remote.port, lport);
        }
      } else if (op < 18) {
        const std::uint64_t id = live[li].id;
        ASSERT_EQ(queued_by_session(cap)[id], queued_keys(model.queue(id)));
        const std::size_t expected = model.end_session(id).size();
        if (rng() % 2 == 0) {
          EXPECT_EQ(cap.finish_session(id), expected);
        } else {
          cap.abort_session(id);
        }
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(li));
        ended += 1;
      } else {
        // Any session's ports, or one nobody captures.
        const std::uint16_t dport =
            rng() % 8 == 0 ? std::uint16_t{9999}
                           : static_cast<std::uint16_t>(9000 + rng() % 6);
        const net::Endpoint from = pick_remote();
        const auto payload = Buffer{static_cast<std::uint8_t>(step)};
        net::Packet p;
        if (pick_proto() == net::IpProto::udp) {
          p = net::make_udp(from, {kAddrB, dport}, payload);
        } else {
          net::TcpHeader hdr;
          hdr.flags = net::tcp_flags::ack;
          // Small seq space: plenty of retransmits.
          hdr.seq = static_cast<std::uint32_t>(rng() % 6);
          p = net::make_tcp(from, {kAddrB, dport}, hdr, payload);
        }
        const std::uint64_t dedup_before = model.deduplicated();
        const bool stolen = model.offer(p);
        ASSERT_EQ(h.b.netfilter().run(stack::Hook::local_in, p) ==
                      stack::Verdict::stolen,
                  stolen)
            << "step " << step;
        if (p.proto == net::IpProto::tcp) {
          const bool armed = exact_armed.count({from.addr.value, from.port, dport}) != 0;
          const auto segment =
              std::make_tuple(from.addr.value, from.port, dport, p.tcp.seq);
          if (model.deduplicated() > dedup_before) {
            if (armed && before_exact.count(segment) != 0) seeded_dedups += 1;
          } else if (stolen && !armed) {
            before_exact.insert(segment);
          }
        }
        ASSERT_EQ(cap.total_captured(), model.captured()) << "step " << step;
        ASSERT_EQ(cap.total_deduplicated(), model.deduplicated()) << "step " << step;
      }
    }
    auto queues = queued_by_session(cap);
    for (const Live& s : live) {
      EXPECT_EQ(queues[s.id], queued_keys(model.queue(s.id)));
      cap.abort_session(s.id);
    }
    deduplicated += model.deduplicated();
  }
  // The sequences must exercise what the index has to get right.
  EXPECT_GT(deduplicated, 0u);
  EXPECT_GT(seeded_dedups, 0u);
  EXPECT_GT(ended, 0);
}

// ---------------------------------------------------------- translation index

TEST(TranslationIndexTest, ChainedInstallComposesInPlace) {
  TwoHosts h;
  TranslationManager trans(h.b);
  const std::uint64_t id1 = trans.install(
      TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrB, 3306},
                      net::Endpoint{kAddrA, 45000}, kAddrC});
  // The process moves again C -> D: the new rule's origin is the old rule's
  // output, so it must compose into ORIG -> D, not stack a second rule.
  const std::uint64_t id2 = trans.install(
      TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrB, 3306},
                      net::Endpoint{kAddrC, 45000}, kAddrD});
  EXPECT_EQ(id2, id1);
  EXPECT_EQ(trans.active_rules(), 1u);
  const auto rule = trans.find_rule(net::Endpoint{kAddrB, 3306},
                                    net::Endpoint{kAddrA, 45000});
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->mig_new_addr, kAddrD);

  // And home again D -> A: the composed rule becomes identity and dissolves.
  trans.install(TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrB, 3306},
                                net::Endpoint{kAddrD, 45000}, kAddrA});
  EXPECT_EQ(trans.active_rules(), 0u);
}

TEST(TranslationIndexTest, OldestRuleWinsOnDuplicateTuple) {
  TwoHosts h;
  TranslationManager trans(h.b);
  const std::uint64_t id1 = trans.install(
      TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrB, 3306},
                      net::Endpoint{kAddrA, 45000}, kAddrC});
  trans.install(TranslationRule{net::IpProto::udp, net::Endpoint{kAddrB, 3306},
                                net::Endpoint{kAddrA, 45000}, kAddrD});
  EXPECT_EQ(trans.active_rules(), 2u);

  // Protoless lookup: the oldest matching rule is the deterministic winner.
  const auto rule = trans.find_rule(net::Endpoint{kAddrB, 3306},
                                    net::Endpoint{kAddrA, 45000});
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->mig_new_addr, kAddrC);
  (void)id1;

  trans.remove_matching(net::Endpoint{kAddrB, 3306}, net::Endpoint{kAddrA, 45000});
  EXPECT_EQ(trans.active_rules(), 0u);  // removes every rule of the pair
  EXPECT_FALSE(trans.find_rule(net::Endpoint{kAddrB, 3306},
                               net::Endpoint{kAddrA, 45000})
                   .has_value());
}

// Property test: random install, chained install (X -> Y -> Z and back home)
// and remove_matching sequences. After every operation the index holds the
// same rules as the oldest-rule-first walk (oracle::TranslationOracle), and
// every packet through either hook gets the walk's rewrite with a checksum
// that still verifies.
TEST(TranslationIndexTest, IndexedRewriteEqualsReferenceWalk) {
  const net::Ipv4Addr hosts[] = {kAddrA, kAddrC, kAddrD,
                                 net::Ipv4Addr::octets(10, 0, 0, 5)};
  const net::Endpoint peers[] = {{kAddrB, 3306}, {kAddrB, 3307}};
  const std::uint16_t ports[] = {45000, 45001};
  int chained = 0, homed = 0, rewrites = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TwoHosts h;
    TranslationManager trans(h.b);
    oracle::TranslationOracle model;
    std::mt19937 rng(seed);
    auto pick_proto = [&] {
      return rng() % 3 == 0 ? net::IpProto::udp : net::IpProto::tcp;
    };
    auto pick_host = [&] { return hosts[rng() % 4]; };
    auto pick_endpoint = [&] { return net::Endpoint{pick_host(), ports[rng() % 2]}; };
    // A rule of the model, picked at random (nullptr when there is none).
    auto pick_rule = [&]() -> const TranslationRule* {
      if (model.rules().empty()) return nullptr;
      auto it = model.rules().begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % model.rules().size()));
      return &it->second;
    };
    std::uint64_t out_expected = 0, in_expected = 0;

    for (int step = 0; step < 400; ++step) {
      const auto op = rng() % 100;
      if (op < 15) {  // a fresh migration of some connection
        TranslationRule rule{pick_proto(), peers[rng() % 2], pick_endpoint(), {}};
        do rule.mig_new_addr = pick_host();
        while (rule.mig_new_addr == rule.mig_old.addr);
        trans.install(rule);
        model.install(rule);
      } else if (op < 30) {  // the migrated process moves on, maybe home
        const TranslationRule* r = pick_rule();
        if (r == nullptr) continue;
        const std::size_t before = model.rules().size();
        TranslationRule hop{r->proto, r->peer_local,
                            net::Endpoint{r->mig_new_addr, r->mig_old.port}, {}};
        do hop.mig_new_addr = rng() % 2 == 0 ? r->mig_old.addr : pick_host();
        while (hop.mig_new_addr == hop.mig_old.addr);
        trans.install(hop);
        model.install(hop);
        chained += 1;
        if (model.rules().size() < before) homed += 1;
      } else if (op < 36) {
        const TranslationRule* r = pick_rule();
        const net::Endpoint peer = r != nullptr ? r->peer_local : peers[rng() % 2];
        const net::Endpoint old = r != nullptr ? r->mig_old : pick_endpoint();
        trans.remove_matching(peer, old);
        model.remove_matching(peer, old);
      } else {
        // A packet through one hook: either the tuple of some rule (maybe
        // with the other protocol) or a random one.
        const bool outgoing = rng() % 2 == 0;
        const TranslationRule* r = rng() % 4 != 0 ? pick_rule() : nullptr;
        net::Endpoint local = r != nullptr ? r->peer_local : peers[rng() % 2];
        net::Endpoint remote =
            r == nullptr  ? pick_endpoint()
            : outgoing    ? r->mig_old
                          : net::Endpoint{r->mig_new_addr, r->mig_old.port};
        const net::IpProto proto =
            r != nullptr && rng() % 4 != 0 ? r->proto : pick_proto();
        const Buffer payload(1 + rng() % 24, static_cast<std::uint8_t>(step));
        const net::Endpoint src = outgoing ? local : remote;
        const net::Endpoint dst = outgoing ? remote : local;
        net::Packet p;
        if (proto == net::IpProto::udp) {
          p = net::make_udp(src, dst, payload);
        } else {
          net::TcpHeader hdr;
          hdr.flags = net::tcp_flags::ack;
          hdr.seq = static_cast<std::uint32_t>(rng());
          p = net::make_tcp(src, dst, hdr, payload);
        }
        const net::Packet sent = p;
        if (outgoing) {
          const net::Ipv4Addr want = model.local_out_dst(p);
          h.b.netfilter().run(stack::Hook::local_out, p);
          ASSERT_EQ(p.dst, want) << "step " << step;
          ASSERT_EQ(p.src, sent.src) << "step " << step;
          out_expected += want != sent.dst ? 1 : 0;
        } else {
          const net::Ipv4Addr want = model.local_in_src(p);
          h.b.netfilter().run(stack::Hook::local_in, p);
          ASSERT_EQ(p.src, want) << "step " << step;
          ASSERT_EQ(p.dst, sent.dst) << "step " << step;
          in_expected += want != sent.src ? 1 : 0;
        }
        ASSERT_TRUE(net::checksum_ok(p)) << "step " << step;
      }
      ASSERT_EQ(trans.active_rules(), model.rules().size()) << "step " << step;
      const net::Endpoint probe_peer = peers[rng() % 2];
      const net::Endpoint probe_old = pick_endpoint();
      const auto got = trans.find_rule(probe_peer, probe_old);
      const auto want = model.find_rule(probe_peer, probe_old);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (want) {
        EXPECT_EQ(got->proto, want->proto);
        EXPECT_EQ(got->mig_new_addr, want->mig_new_addr);
      }
    }
    EXPECT_EQ(trans.out_rewritten(), out_expected);
    EXPECT_EQ(trans.in_rewritten(), in_expected);
    rewrites += static_cast<int>(out_expected + in_expected);
  }
  EXPECT_GT(chained, 0);
  EXPECT_GT(homed, 0);
  EXPECT_GT(rewrites, 0);
}

TEST(TranslationIndexTest, NonMatchingPacketUntouchedByIndex) {
  TwoHosts h;
  TranslationManager trans(h.b);
  trans.install(TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrB, 3306},
                                net::Endpoint{kAddrA, 45000}, kAddrC});
  net::Packet seen{};
  stack::HookHandle probe = h.b.netfilter().register_hook(
      stack::Hook::local_in, 50, [&](net::Packet& p) {
        seen = p;
        return stack::Verdict::stolen;
      });
  net::TcpHeader hdr;
  hdr.flags = net::tcp_flags::ack;
  // Same port pair, different remote address: must not match the rule.
  h.b.rx(net::make_tcp({kAddrD, 45000}, {kAddrB, 3306}, hdr, Buffer{1}));
  EXPECT_EQ(seen.src, kAddrD);
  EXPECT_EQ(trans.in_rewritten(), 0u);
  probe.release();
}

// ------------------------------------------------- chunked socket_state dumps

// Counts outbound socket_state frames across every channel. Registered only
// while no dvemig-verify instance is alive (one observer at most).
struct FrameCounter : FrameChannel::Observer {
  int socket_state_frames = 0;
  void on_channel_frame(const FrameChannel&, bool outbound, MsgType type,
                        std::size_t) override {
    if (outbound && type == MsgType::socket_state) socket_state_frames += 1;
  }
};

MigrationStats run_collective_with_chunk_limit(std::int64_t chunk_bytes,
                                               int* socket_state_frames) {
  // Pids seed each process's workload RNG; resetting makes the two runs of
  // this test identical up to the freeze-phase send being compared.
  proc::Node::reset_pid_counter();
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.cost_model.socket_chunk_bytes = chunk_bytes;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 4;
  zs.use_db = false;
  const dve::ZoneServerPoint world(bed, zs, {.count = 8, .active = 0});
  bed.run_for(SimTime::seconds(1));

  FrameCounter counter;
  FrameChannel::set_observer(&counter);
  const auto stats =
      dve::migrate_and_wait(bed, world.proc->pid(), 0, 1, {SocketMigStrategy::collective},
                            SimTime::seconds(5));
  FrameChannel::set_observer(nullptr);
  EXPECT_TRUE(stats);
  for (const auto& c : world.clients) {
    EXPECT_TRUE(c->connected());
    EXPECT_EQ(c->resets_seen(), 0u);
  }
  *socket_state_frames = counter.socket_state_frames;
  return stats.value_or(MigrationStats{});
}

TEST(SocketChunkTest, TinyChunkLimitSplitsDumpWithoutChangingOutcome) {
  int chunked_frames = 0;
  int whole_frames = 0;
  const MigrationStats chunked =
      run_collective_with_chunk_limit(2048, &chunked_frames);
  const MigrationStats whole =
      run_collective_with_chunk_limit(64LL * 1024 * 1024, &whole_frames);

  ASSERT_TRUE(chunked.success);
  ASSERT_TRUE(whole.success);
  // A full TCP record (~2.9 KiB of struct pad alone) overshoots the 2 KiB
  // limit by itself, so the unified dump splits into many frames; the default
  // limit ships the pre-chunking single frame.
  EXPECT_GT(chunked_frames, 1);
  EXPECT_EQ(whole_frames, 1);
  EXPECT_EQ(chunked.socket_count, whole.socket_count);
  EXPECT_EQ(chunked.captured, chunked.reinjected);
  EXPECT_EQ(whole.captured, whole.reinjected);
  // Chunking changes framing, not payload: the dumps differ by exactly one
  // u32 record-count prefix per extra frame.
  EXPECT_EQ(chunked.freeze_socket_bytes,
            whole.freeze_socket_bytes +
                sizeof(std::uint32_t) *
                    static_cast<std::uint64_t>(chunked_frames - whole_frames));
}

// --- ehash: open addressing against an ordered-map reference (DESIGN.md §12.7) ---

using stack::FourTuple;
using stack::SocketTable;
using stack::TcpSocket;
using EhashModel = std::map<FourTuple, std::shared_ptr<TcpSocket>>;

/// Every observable of the table agrees with the reference: size, each key's
/// lookup, the iteration set and the per-port refcounts (recounted).
void expect_ehash_matches(const SocketTable& table, const EhashModel& ref) {
  ASSERT_EQ(table.ehash_size(), ref.size());
  const std::size_t cap = table.ehash_capacity();
  EXPECT_TRUE(cap == 0 || (std::has_single_bit(cap) && cap >= 2 * ref.size())) << cap;
  EhashModel visited;
  table.for_each_established([&](const FourTuple& key, const auto& sock) {
    EXPECT_TRUE(visited.emplace(key, sock).second) << "visited twice";
  });
  EXPECT_EQ(visited, ref);
  std::map<net::Port, std::uint32_t> refs;
  for (const auto& [key, sock] : ref) {
    refs[key.local.port] += 1;
    EXPECT_EQ(table.ehash_lookup(key), sock);
  }
  EXPECT_EQ(table.tcp_tracked_port_count(), refs.size());
  for (const auto& [port, n] : refs) EXPECT_EQ(table.tcp_local_port_refs(port), n);
}

FourTuple ehash_key(std::uint32_t local_host, net::Port local_port, std::uint32_t remote_host,
                    net::Port remote_port) {
  return FourTuple{net::Endpoint{net::Ipv4Addr{0x0A000000u + local_host}, local_port},
                   net::Endpoint{net::Ipv4Addr{0xC0A80000u + remote_host}, remote_port}};
}

TEST(SocketTableTest, PropertyOpenAddressingMatchesMapModel) {
  sim::Engine engine;
  NetStack host(engine, "host", SimTime::seconds(1));
  std::vector<std::shared_ptr<TcpSocket>> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(host.make_tcp());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SocketTable table;
    EhashModel ref;
    std::mt19937_64 rng(seed);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    // A small key space, so inserts hit existing keys and lookups hit and miss.
    const auto random_key = [&] {
      return ehash_key(static_cast<std::uint32_t>(below(2)),
                       static_cast<net::Port>(below(2) == 0 ? 80 : 49152 + below(8)),
                       static_cast<std::uint32_t>(below(64)),
                       static_cast<net::Port>(1000 + below(64)));
    };
    // Grow across ten doublings or more (8 -> 8192+ slots), churn at size, then
    // drain.
    const std::pair<int, int> phases[] = {{6000, 90}, {6000, 50}, {9000, 0}};
    for (const auto& [steps, insert_pct] : phases) {
      for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
        const FourTuple key = random_key();
        if (below(100) < static_cast<std::uint64_t>(insert_pct)) {
          if (ref.contains(key)) continue;
          const auto& sock = pool[below(pool.size())];
          table.ehash_insert(sock, key);
          ref.emplace(key, sock);
        } else if (!ref.empty() && below(4) != 0) {
          auto it = ref.lower_bound(key);
          if (it == ref.end()) it = ref.begin();
          table.ehash_remove(it->first);
          ref.erase(it);
        } else {
          const auto it = ref.find(key);
          ASSERT_EQ(table.ehash_lookup(key), it == ref.end() ? nullptr : it->second);
        }
        if (step % 500 == 0) expect_ehash_matches(table, ref);
      }
      expect_ehash_matches(table, ref);
      if (insert_pct == 90) {
        EXPECT_GE(table.ehash_capacity(), 8192u);
      }
    }
    for (auto it = ref.begin(); it != ref.end(); it = ref.erase(it)) {
      table.ehash_remove(it->first);
    }
    expect_ehash_matches(table, ref);
  }
}

TEST(SocketTableTest, CollidingClusterWrapsTheArrayEndAndSurvivesMidRemoval) {
  sim::Engine engine;
  NetStack host(engine, "host", SimTime::seconds(1));
  const auto sock = host.make_tcp();
  constexpr std::size_t kSlots = 16;
  // Seven keys whose home is the last slot, so their cluster wraps to the
  // front, and one key homed in the middle of that cluster.
  std::vector<FourTuple> keys;
  FourTuple homed_mid{};
  for (net::Port port = 1000; keys.size() < 7 || homed_mid.local.port == 0; ++port) {
    const FourTuple key = ehash_key(1, 80, 7, port);
    const std::uint64_t home = stack::FourTupleHash{}(key) & (kSlots - 1);
    if (home == kSlots - 1 && keys.size() < 7) keys.push_back(key);
    if (home == 1 && homed_mid.local.port == 0) homed_mid = key;
  }
  keys.push_back(homed_mid);

  SocketTable table;
  EhashModel ref;
  for (const FourTuple& key : keys) {
    table.ehash_insert(sock, key);
    ref.emplace(key, sock);
  }
  ASSERT_EQ(table.ehash_capacity(), kSlots);  // 8 keys: exactly half load
  expect_ehash_matches(table, ref);
  // Remove from the middle of the cluster, then its head, then the rest. The
  // key homed at slot 1 goes last: once the cluster has shrunk back to slots
  // 15 and 0, a removal there must leave it at its home, not shift it past.
  for (const std::size_t i : {2u, 0u, 5u, 1u, 3u, 4u, 6u, 7u}) {
    SCOPED_TRACE(testing::Message() << "removing key " << i);
    table.ehash_remove(keys[i]);
    ref.erase(keys[i]);
    EXPECT_EQ(table.ehash_lookup(keys[i]), nullptr);
    expect_ehash_matches(table, ref);
  }
}

TEST(SocketTableTest, LookupInEmptyTableMisses) {
  SocketTable table;
  EXPECT_EQ(table.ehash_lookup(ehash_key(0, 80, 0, 1000)), nullptr);
  EXPECT_EQ(table.ehash_capacity(), 0u);
}

}  // namespace
}  // namespace dvemig::mig
