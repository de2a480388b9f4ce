// Socket-migration building blocks: capture filters (loss prevention + seq
// dedup + reinjection), translation filters (header rewrite, checksum fixup,
// dst-cache replacement), socket images, timestamp adjustment, delta tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>

#include "src/check/verifier.hpp"
#include "src/mig/capture.hpp"
#include "src/mig/cost_model.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/socket_image.hpp"
#include "src/mig/translation.hpp"
#include "src/net/switch.hpp"

namespace dvemig::mig {
namespace {

using stack::NetStack;
using stack::TcpSocket;
using stack::TcpState;

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);
const net::Ipv4Addr kAddrC = net::Ipv4Addr::octets(10, 0, 0, 3);

check::VerifierConfig audit_cfg() {
  check::VerifierConfig cfg;
  cfg.abort_on_violation = false;  // report through gtest, not abort()
  return cfg;
}

struct ThreeHosts {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  NetStack a{engine, "hostA", SimTime::seconds(100)};
  NetStack b{engine, "hostB", SimTime::seconds(350)};
  NetStack c{engine, "hostC", SimTime::seconds(900)};
  // dvemig-verify audits all three stacks after every event of every test.
  check::Verifier verify{engine, audit_cfg()};

  ThreeHosts() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
    c.add_interface(kAddrC,
                    sw.attach(kAddrC, [this](net::Packet p) { c.rx(std::move(p)); }));
    verify.watch_stack(a);
    verify.watch_stack(b);
    verify.watch_stack(c);
  }

  ~ThreeHosts() {
    EXPECT_TRUE(verify.clean())
        << verify.violations().front().rule << ": "
        << verify.violations().front().detail;
  }

  std::pair<TcpSocket::Ptr, TcpSocket::Ptr> connect(NetStack& from, NetStack& to,
                                                    net::Ipv4Addr to_addr,
                                                    net::Port port) {
    auto listener = to.make_tcp();
    listener->bind(to_addr, port);
    listener->listen(8);
    auto client = from.make_tcp();
    client->connect(net::Endpoint{to_addr, port});
    engine.run();
    auto server = listener->accept();
    EXPECT_NE(server, nullptr);
    listener->close();
    return {client, server};
  }
};

// --------------------------------------------------------------- CaptureSpec

TEST(CaptureSpecTest, MatchSemantics) {
  CaptureSpec spec{net::IpProto::tcp, true, net::Endpoint{kAddrA, 1111}, 9000};
  net::TcpHeader hdr;
  net::Packet hit = net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, {});
  net::Packet wrong_port = net::make_tcp({kAddrA, 1111}, {kAddrB, 9001}, hdr, {});
  net::Packet wrong_src = net::make_tcp({kAddrA, 2222}, {kAddrB, 9000}, hdr, {});
  net::Packet wrong_proto = net::make_udp({kAddrA, 1111}, {kAddrB, 9000}, {});
  EXPECT_TRUE(spec.matches(hit));
  EXPECT_FALSE(spec.matches(wrong_port));
  EXPECT_FALSE(spec.matches(wrong_src));
  EXPECT_FALSE(spec.matches(wrong_proto));

  CaptureSpec wildcard{net::IpProto::tcp, false, {}, 9000};
  EXPECT_TRUE(wildcard.matches(hit));
  EXPECT_TRUE(wildcard.matches(wrong_src));  // remote ignored
}

TEST(CaptureSpecTest, SerializationRoundTrip) {
  CaptureSpec spec{net::IpProto::udp, true, net::Endpoint{kAddrC, 27960}, 5000};
  BinaryWriter w;
  spec.serialize(w);
  BinaryReader r(w.buffer());
  const CaptureSpec back = CaptureSpec::deserialize(r);
  EXPECT_EQ(back.proto, spec.proto);
  EXPECT_EQ(back.match_remote, spec.match_remote);
  EXPECT_EQ(back.remote, spec.remote);
  EXPECT_EQ(back.local_port, spec.local_port);
}

// ------------------------------------------------------------ CaptureManager

TEST(CaptureManagerTest, StealsMatchingPacketsAndReinjects) {
  ThreeHosts h;
  CaptureManager capture(h.b);
  const std::uint64_t session = capture.begin_session();
  capture.add_spec(session, CaptureSpec{net::IpProto::udp, false, {}, 5000});

  // No socket exists yet: without capture these packets would be lost.
  for (int i = 0; i < 3; ++i) {
    h.b.rx(net::make_udp({kAddrA, 1234}, {kAddrB, 5000},
                         Buffer{static_cast<std::uint8_t>(i)}));
  }
  EXPECT_EQ(capture.queued(session), 3u);
  EXPECT_EQ(h.b.stats().rx_hook_stolen, 3u);

  // Socket appears (as after restore); reinjection delivers in order.
  auto sock = h.b.make_udp();
  sock->bind(kAddrB, 5000);
  EXPECT_EQ(capture.finish_session(session), 3u);
  ASSERT_EQ(sock->pending(), 3u);
  EXPECT_EQ(sock->recv()->data, (Buffer{0}));
  EXPECT_EQ(sock->recv()->data, (Buffer{1}));
  EXPECT_EQ(sock->recv()->data, (Buffer{2}));
}

TEST(CaptureManagerTest, TcpSequenceDeduplication) {
  ThreeHosts h;
  CaptureManager capture(h.b);
  const std::uint64_t session = capture.begin_session();
  capture.add_spec(session,
                   CaptureSpec{net::IpProto::tcp, true, net::Endpoint{kAddrA, 1111}, 9000});

  net::TcpHeader hdr;
  hdr.seq = 5000;
  hdr.flags = net::tcp_flags::ack | net::tcp_flags::psh;
  // The same retransmitted segment arrives three times.
  for (int i = 0; i < 3; ++i) {
    h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer(10, 1)));
  }
  hdr.seq = 5010;  // a different segment
  h.b.rx(net::make_tcp({kAddrA, 1111}, {kAddrB, 9000}, hdr, Buffer(10, 2)));

  EXPECT_EQ(capture.queued(session), 2u);  // duplicates stored only once
  EXPECT_EQ(capture.total_deduplicated(), 2u);
  capture.abort_session(session);
}

TEST(CaptureManagerTest, NonMatchingTrafficUnaffected) {
  ThreeHosts h;
  auto other = h.b.make_udp();
  other->bind(kAddrB, 6000);
  CaptureManager capture(h.b);
  const std::uint64_t session = capture.begin_session();
  capture.add_spec(session, CaptureSpec{net::IpProto::udp, false, {}, 5000});
  h.b.rx(net::make_udp({kAddrA, 1234}, {kAddrB, 6000}, Buffer{9}));
  EXPECT_EQ(other->pending(), 1u);  // flowed straight past the capture hook
  EXPECT_EQ(capture.queued(session), 0u);
  capture.abort_session(session);
}

TEST(CaptureManagerTest, HookRemovedWhenNoSessions) {
  ThreeHosts h;
  CaptureManager capture(h.b);
  EXPECT_EQ(h.b.netfilter().hook_count(stack::Hook::local_in), 0u);
  const std::uint64_t s1 = capture.begin_session();
  EXPECT_EQ(h.b.netfilter().hook_count(stack::Hook::local_in), 1u);
  const std::uint64_t s2 = capture.begin_session();
  EXPECT_EQ(h.b.netfilter().hook_count(stack::Hook::local_in), 1u);  // shared hook
  capture.abort_session(s1);
  capture.finish_session(s2);
  EXPECT_EQ(h.b.netfilter().hook_count(stack::Hook::local_in), 0u);
}

// --------------------------------------------------------- TranslationManager

TEST(TranslationTest, RuleSerializationRoundTrip) {
  TranslationRule rule{net::IpProto::tcp, net::Endpoint{kAddrC, 3306},
                       net::Endpoint{kAddrA, 45000}, kAddrB};
  BinaryWriter w;
  put(w, rule);
  BinaryReader r(w.buffer());
  const auto back = get<TranslationRule>(r);
  EXPECT_EQ(back.peer_local, rule.peer_local);
  EXPECT_EQ(back.mig_old, rule.mig_old);
  EXPECT_EQ(back.mig_new_addr, rule.mig_new_addr);
}

TEST(TranslationTest, OutgoingRewriteKeepsChecksumValid) {
  ThreeHosts h;
  TranslationManager trans(h.c);
  trans.install(TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrC, 3306},
                                net::Endpoint{kAddrA, 45000}, kAddrB});

  // Send from a C socket toward the *old* address; the LOCAL_OUT filter must
  // retarget it to B with a checksum that still verifies.
  auto [client, server] = h.connect(h.c, h.a, kAddrA, 45000);
  (void)server;
  // Hand-roll a socket with the rule's exact endpoints instead: the rule matches
  // (src C:3306, dst A:45000).
  auto peer = h.c.make_tcp();
  peer->bind(kAddrC, 3306);
  net::TcpHeader hdr;
  hdr.flags = net::tcp_flags::ack;
  hdr.seq = 1;
  net::Packet captured_at_b{};
  bool got_b = false;
  stack::HookHandle probe = h.b.netfilter().register_hook(
      stack::Hook::local_in, -50, [&](net::Packet& p) {
        captured_at_b = p;
        got_b = true;
        return stack::Verdict::stolen;
      });
  net::Packet p = net::make_tcp({kAddrC, 3306}, {kAddrA, 45000}, hdr, Buffer(32, 7));
  h.c.send_from(*peer, std::move(p));
  h.engine.run();
  ASSERT_TRUE(got_b);  // retargeted to B
  EXPECT_EQ(captured_at_b.dst, kAddrB);
  EXPECT_TRUE(net::checksum_ok(captured_at_b));  // incremental fixup correct
  EXPECT_EQ(trans.out_rewritten(), 1u);
  probe.release();
}

TEST(TranslationTest, IncomingRewriteRestoresOriginalSource) {
  ThreeHosts h;
  TranslationManager trans(h.c);
  trans.install(TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrC, 3306},
                                net::Endpoint{kAddrA, 45000}, kAddrB});
  // A packet from the migrated socket (now at B) arrives at C; the LOCAL_IN
  // filter must rewrite src back to A before the socket sees it.
  net::Packet seen{};
  stack::HookHandle probe = h.c.netfilter().register_hook(
      stack::Hook::local_in, 50, [&](net::Packet& p) {  // after the translation
        seen = p;
        return stack::Verdict::stolen;
      });
  net::TcpHeader hdr;
  hdr.flags = net::tcp_flags::ack;
  h.c.rx(net::make_tcp({kAddrB, 45000}, {kAddrC, 3306}, hdr, Buffer(16, 3)));
  EXPECT_EQ(seen.src, kAddrA);
  EXPECT_TRUE(net::checksum_ok(seen));
  EXPECT_EQ(trans.in_rewritten(), 1u);
  probe.release();
}

TEST(TranslationTest, DstCacheReplacedOnInstall) {
  ThreeHosts h;
  // Real connection C -> A so the peer socket and its dst cache exist.
  auto [peer, mig_sock] = h.connect(h.c, h.a, kAddrA, 45000);
  peer->send(Buffer(10, 1));
  h.engine.run();
  ASSERT_EQ(peer->dst_cache(), kAddrA);

  TranslationManager trans(h.c);
  trans.install(TranslationRule{net::IpProto::tcp, peer->local(), peer->remote(),
                                kAddrB});
  EXPECT_EQ(peer->dst_cache(), kAddrB);
}

TEST(TranslationTest, WithoutDstCacheFixFramesGoToOldNode) {
  ThreeHosts h;
  auto [peer, mig_sock] = h.connect(h.c, h.a, kAddrA, 45000);
  peer->send(Buffer(10, 1));
  h.engine.run();

  TranslationManager trans(h.c);
  trans.install(TranslationRule{net::IpProto::tcp, peer->local(), peer->remote(),
                                kAddrB},
                /*fix_dst_cache=*/false);  // the Section V-D bug, reproduced
  std::uint64_t to_b = 0, to_a_stale = 0;
  stack::HookHandle at_b = h.b.netfilter().register_hook(
      stack::Hook::local_in, -50, [&](net::Packet& p) {
        if (p.proto == net::IpProto::tcp && p.tcp.dport == 45000) ++to_b;
        (void)p;
        return stack::Verdict::accept;
      });
  stack::HookHandle at_a = h.a.netfilter().register_hook(
      stack::Hook::local_in, -50, [&](net::Packet& p) {
        // Header says B, but the stale cache steered the frame to A.
        if (p.proto == net::IpProto::tcp && p.dst == kAddrB) ++to_a_stale;
        return stack::Verdict::accept;
      });
  peer->send(Buffer(10, 2));
  h.engine.run_until(h.engine.now() + SimTime::milliseconds(5));
  EXPECT_EQ(to_b, 0u);
  EXPECT_GE(to_a_stale, 1u);
  at_b.release();
  at_a.release();
}

TEST(TranslationTest, HooksRemovedWithLastRule) {
  ThreeHosts h;
  TranslationManager trans(h.c);
  const std::uint64_t r1 = trans.install(
      TranslationRule{net::IpProto::tcp, net::Endpoint{kAddrC, 1}, net::Endpoint{kAddrA, 2},
                      kAddrB});
  EXPECT_EQ(trans.active_rules(), 1u);
  EXPECT_EQ(h.c.netfilter().hook_count(stack::Hook::local_out), 1u);
  trans.remove(r1);
  EXPECT_EQ(trans.active_rules(), 0u);
  EXPECT_EQ(h.c.netfilter().hook_count(stack::Hook::local_out), 0u);
}

// ------------------------------------------------------ extract/restore TCP

TEST(SocketImageTest, TcpExtractCapturesStateAndQueues) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  client->send(Buffer(3000, 5));  // lands in server's receive queue, unread
  h.engine.run();

  const TcpImage img = extract_tcp(*server, 4);
  EXPECT_EQ(img.fd, 4);
  EXPECT_EQ(img.local, server->local());
  EXPECT_EQ(img.remote, server->remote());
  EXPECT_EQ(img.state, TcpState::established);
  EXPECT_EQ(img.rcv_nxt, server->cb().rcv_nxt);
  std::size_t rx_bytes = 0;
  for (const auto& s : img.receive_queue) rx_bytes += s.data.size();
  EXPECT_EQ(rx_bytes, 3000u);
}

/// The migrated variables of a control block or an image, compared with ==.
const stack::TcpVars& vars(const stack::TcpVars& v) { return v; }

/// The live socket's queues hold exactly the image's segments, in order.
void expect_queues(const stack::TcpCb& cb, const TcpImage& img) {
  EXPECT_TRUE(std::ranges::equal(cb.write_queue, img.write_queue));
  EXPECT_TRUE(std::ranges::equal(cb.receive_queue, img.receive_queue));
  EXPECT_TRUE(std::ranges::equal(std::views::values(cb.ooo_queue), img.ooo_queue));
}

TEST(SocketImageTest, TcpSectionsRoundTrip) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  client->send(Buffer(2000, 5));
  h.engine.run();
  server->send(Buffer(3000, 6));  // unacked: the write queue is not empty
  const TcpImage img = extract_tcp(*server, 4);
  expect_queues(server->cb(), img);
  ASSERT_FALSE(img.write_queue.empty());
  ASSERT_FALSE(img.receive_queue.empty());

  SocketDeltaTracker tracker;
  BinaryWriter w;
  EXPECT_EQ(tracker.emit_tcp(img, w, /*force_all=*/true), kAllSections<TcpImage>);
  // The static section carries the struct tcp_sock pad: this is what makes a
  // full dump ~kTcpSockStructPad bytes per connection.
  EXPECT_GT(w.size(), kTcpSockStructPad);

  SocketStaging staging;
  BinaryReader r(w.buffer());
  ASSERT_TRUE(read_socket_record(r, staging));
  EXPECT_TRUE(r.at_end());
  const StagedSocket& staged = staging.at(img.src_sock_key);
  ASSERT_TRUE(staged.complete());
  const TcpImage& back = staged.tcp;
  EXPECT_EQ(vars(back), vars(img));
  EXPECT_EQ(back.fd, img.fd);
  EXPECT_EQ(back.local, img.local);
  EXPECT_EQ(back.remote, img.remote);
  EXPECT_EQ(back.listening, img.listening);
  EXPECT_EQ(back.backlog_limit, img.backlog_limit);
  EXPECT_EQ(back.write_queue, img.write_queue);
  EXPECT_EQ(back.receive_queue, img.receive_queue);
  EXPECT_EQ(back.ooo_queue, img.ooo_queue);
}

TEST(SocketImageTest, RestoreRehashesAndPreservesData) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  client->send(Buffer(1000, 9));
  h.engine.run();
  server->send(Buffer(500, 4));  // unacked at the checkpoint
  const TcpImage img = extract_tcp(*server, 4);

  // "Migrate" B's socket to C. B's copy is detached first.
  server->detach();

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = kAddrB;
  ctx.dst_node_local_addr = kAddrC;
  ctx.src_jiffies_at_ckpt = h.b.jiffies();
  ctx.src_local_now_at_ckpt_ns = h.b.local_now_ns();
  ctx.adjust_timestamps = false;  // so the control block must equal the image
  auto restored = restore_tcp(img, ctx);

  // Every migrated variable and every queued segment arrives unchanged.
  EXPECT_EQ(vars(restored->cb()), vars(img));
  expect_queues(restored->cb(), img);
  // Local address rewritten B -> C (in-cluster socket); rehashed on C.
  EXPECT_EQ(restored->local().addr, kAddrC);
  EXPECT_EQ(restored->local().port, img.local.port);
  EXPECT_EQ(h.c.table().ehash_lookup(
                stack::FourTuple{restored->local(), restored->remote()}),
            restored);
  EXPECT_TRUE(restored->rto_pending());  // the unacked segment is timed again
  EXPECT_EQ(restored->read_bytes(), Buffer(1000, 9));  // queued data survived
}

TEST(SocketImageTest, TimestampAdjustmentKeepsTsvalMonotonic) {
  ThreeHosts h;
  // a(+100s) -> migrate server socket from b(+350s) to c(+900s): jiffies jump
  // forward by 55,000 — without adjustment tsval would leap; migrating c -> b
  // would make it go backwards and trip PAWS. Check the offset math directly.
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  client->send(Buffer(100, 1));
  h.engine.run();
  const TcpImage img = extract_tcp(*server, 4);

  const std::uint32_t last_tsval_from_b =
      static_cast<std::uint32_t>(h.b.jiffies() + img.ts_offset);

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = kAddrB;
  ctx.dst_node_local_addr = kAddrC;
  ctx.src_jiffies_at_ckpt = h.b.jiffies();
  ctx.src_local_now_at_ckpt_ns = h.b.local_now_ns();
  server->detach();

  auto restored = restore_tcp(img, ctx);
  const std::uint32_t first_tsval_from_c =
      static_cast<std::uint32_t>(h.c.jiffies() + restored->cb().ts_offset);
  // Continues exactly where the source's timestamp clock left off.
  EXPECT_EQ(first_tsval_from_c, last_tsval_from_b);
}

TEST(SocketImageTest, TimestampAdjustmentDisabledLeavesSkew) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  const TcpImage img = extract_tcp(*server, 4);
  server->detach();

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = kAddrB;
  ctx.dst_node_local_addr = kAddrC;
  ctx.src_jiffies_at_ckpt = h.b.jiffies();
  ctx.src_local_now_at_ckpt_ns = h.b.local_now_ns();
  ctx.adjust_timestamps = false;  // the ablation
  auto restored = restore_tcp(img, ctx);
  const std::uint32_t tsval_c =
      static_cast<std::uint32_t>(h.c.jiffies() + restored->cb().ts_offset);
  const std::uint32_t tsval_b =
      static_cast<std::uint32_t>(h.b.jiffies() + img.ts_offset);
  EXPECT_NE(tsval_c, tsval_b);  // 550s of jiffies skew leaks through
}

TEST(SocketImageTest, PublicAddressNotRewritten) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  const TcpImage img = extract_tcp(*server, 4);
  server->detach();

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = net::Ipv4Addr::octets(9, 9, 9, 9);  // not B's addr
  ctx.dst_node_local_addr = kAddrC;
  ctx.src_jiffies_at_ckpt = h.b.jiffies();
  ctx.src_local_now_at_ckpt_ns = h.b.local_now_ns();
  auto restored = restore_tcp(img, ctx);
  EXPECT_EQ(restored->local().addr, kAddrB);  // treated as the shared public IP
}

TEST(SocketImageTest, ListenerWithAcceptQueueMigrates) {
  ThreeHosts h;
  auto listener = h.b.make_tcp();
  listener->bind(kAddrB, 9000);
  listener->listen(8);
  auto c1 = h.a.make_tcp();
  auto c2 = h.a.make_tcp();
  c1->connect(net::Endpoint{kAddrB, 9000});
  c2->connect(net::Endpoint{kAddrB, 9000});
  h.engine.run();
  ASSERT_EQ(listener->accept_queue_length(), 2u);

  const TcpImage img = extract_tcp(*listener, 3);
  EXPECT_TRUE(img.listening);
  ASSERT_EQ(img.accept_children.size(), 2u);

  listener->detach();  // and its children, on B

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = net::Ipv4Addr::octets(9, 9, 9, 9);
  ctx.dst_node_local_addr = kAddrC;
  ctx.src_jiffies_at_ckpt = h.b.jiffies();
  ctx.src_local_now_at_ckpt_ns = h.b.local_now_ns();
  auto restored = restore_tcp(img, ctx);
  EXPECT_EQ(restored->state(), TcpState::listen);
  EXPECT_EQ(restored->accept_queue_length(), 2u);
  auto child = restored->accept();
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->state(), TcpState::established);
  // The child is live on C: it can exchange data with its original peer.
  EXPECT_EQ(h.c.table().ehash_lookup(stack::FourTuple{child->local(), child->remote()}),
            child);
}

// ------------------------------------------------------ extract/restore UDP

TEST(SocketImageTest, UdpExtractRestoreWithQueue) {
  ThreeHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 27960);
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 27960}, Buffer{1, 2, 3});
  h.engine.run();
  ASSERT_EQ(server->pending(), 1u);

  const UdpImage img = extract_udp(*server, 5);
  EXPECT_TRUE(img.bound);
  ASSERT_EQ(img.receive_queue.size(), 1u);

  server->detach();

  RestoreContext ctx;
  ctx.stack = &h.c;
  ctx.src_node_local_addr = net::Ipv4Addr::octets(9, 9, 9, 9);
  ctx.dst_node_local_addr = kAddrC;
  auto restored = restore_udp(img, ctx);
  EXPECT_TRUE(h.c.table().port_bound(27960, stack::SocketType::udp));
  ASSERT_EQ(restored->pending(), 1u);
  EXPECT_EQ(restored->recv()->data, (Buffer{1, 2, 3}));
}

// ------------------------------------------------------------- DeltaTracker

TEST(DeltaTrackerTest, FirstEmitIsFullThenNothingWhenUnchanged) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  SocketDeltaTracker tracker;
  const TcpImage img = extract_tcp(*server, 4);

  BinaryWriter out1;
  EXPECT_NE(tracker.emit_tcp(img, out1, false), SectionFlags::none);
  EXPECT_GT(out1.size(), kTcpSockStructPad);  // full dump

  BinaryWriter out2;
  EXPECT_EQ(tracker.emit_tcp(extract_tcp(*server, 4), out2, false),
            SectionFlags::none);
  EXPECT_EQ(out2.size(), 0u);  // unchanged socket costs zero bytes
}

TEST(DeltaTrackerTest, TrafficChangesOnlyDynamicAndQueues) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  SocketDeltaTracker tracker;
  BinaryWriter out1;
  (void)tracker.emit_tcp(extract_tcp(*server, 4), out1, false);

  client->send(Buffer(256, 1));
  h.engine.run();
  BinaryWriter out2;
  const SectionFlags flags = tracker.emit_tcp(extract_tcp(*server, 4), out2, false);
  EXPECT_NE(flags & SectionFlags::dyn, 0);
  EXPECT_NE(flags & SectionFlags::queues, 0);
  EXPECT_EQ(flags & SectionFlags::stat, 0);  // the big static pad is NOT resent
  EXPECT_LT(out2.size(), out1.size());
}

TEST(DeltaTrackerTest, MergeOnDestinationReassemblesImage) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  SocketDeltaTracker tracker;
  SocketStaging staging;

  BinaryWriter round1;
  (void)tracker.emit_tcp(extract_tcp(*server, 4), round1, false);
  BinaryReader r1(round1.buffer());
  read_socket_record(r1, staging);

  client->send(Buffer(512, 2));
  h.engine.run();
  const TcpImage latest = extract_tcp(*server, 4);
  BinaryWriter round2;
  (void)tracker.emit_tcp(latest, round2, false);
  BinaryReader r2(round2.buffer());
  read_socket_record(r2, staging);

  ASSERT_EQ(staging.size(), 1u);
  const StagedSocket& staged = staging.begin()->second;
  EXPECT_TRUE(staged.complete());
  EXPECT_EQ(staged.tcp.rcv_nxt, latest.rcv_nxt);  // dynamic section is current
  std::size_t rx = 0;
  for (const auto& s : staged.tcp.receive_queue) rx += s.data.size();
  EXPECT_EQ(rx, 512u);
}

TEST(DeltaTrackerTest, ForceAllResendsEverything) {
  ThreeHosts h;
  auto [client, server] = h.connect(h.a, h.b, kAddrB, 9000);
  h.engine.run();
  SocketDeltaTracker tracker;
  BinaryWriter out1, out2;
  (void)tracker.emit_tcp(extract_tcp(*server, 4), out1, true);
  (void)tracker.emit_tcp(extract_tcp(*server, 4), out2, true);
  EXPECT_NEAR(static_cast<double>(out2.size()), static_cast<double>(out1.size()), 8);
}

TEST(DeltaTrackerTest, UdpDeltas) {
  ThreeHosts h;
  auto server = h.b.make_udp();
  server->bind(kAddrB, 27960);
  SocketDeltaTracker tracker;
  BinaryWriter out1;
  EXPECT_NE(tracker.emit_udp(extract_udp(*server, 5), out1, false),
            SectionFlags::none);
  BinaryWriter out2;
  EXPECT_EQ(tracker.emit_udp(extract_udp(*server, 5), out2, false),
            SectionFlags::none);
  auto client = h.a.make_udp();
  client->send_to(net::Endpoint{kAddrB, 27960}, Buffer{7});
  h.engine.run();
  BinaryWriter out3;
  EXPECT_NE(tracker.emit_udp(extract_udp(*server, 5), out3, false),
            SectionFlags::none);
  EXPECT_LT(out3.size(), out1.size());  // queue section only, no struct pad
}

}  // namespace
}  // namespace dvemig::mig
