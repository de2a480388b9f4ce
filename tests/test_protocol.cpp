// FrameChannel (the migd wire protocol) and netfilter chain edge cases, plus
// the malformed-frame corpus: hostile byte streams pushed through a real TCP
// socket must poison the channel (never the deserializers) and surface as
// mig_abort at the migd layer; stray datagrams on the transd ports are
// dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/check/verifier.hpp"
#include "src/common/log.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/translation.hpp"
#include "src/net/switch.hpp"

namespace dvemig::mig {
namespace {

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);

struct ChannelPair {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  stack::NetStack a{engine, "a", SimTime::seconds(1)};
  stack::NetStack b{engine, "b", SimTime::seconds(2)};
  std::unique_ptr<FrameChannel> client;
  std::unique_ptr<FrameChannel> server;

  ChannelPair() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
    auto listener = b.make_tcp();
    listener->bind(kAddrB, kMigdPort);
    listener->listen(4);
    auto csock = a.make_tcp();
    csock->connect(net::Endpoint{kAddrB, kMigdPort});
    engine.run();
    auto ssock = listener->accept();
    EXPECT_NE(ssock, nullptr);
    listener->close();
    client = std::make_unique<FrameChannel>(std::move(csock));
    server = std::make_unique<FrameChannel>(std::move(ssock));
  }
};

TEST(FrameChannelTest, RoundTripsTypedFrames) {
  ChannelPair p;
  std::vector<std::pair<MsgType, Buffer>> got;
  p.server->set_on_frame([&](MsgType t, BinaryReader& r) {
    Buffer body;
    while (!r.at_end()) body.push_back(r.u8());
    got.emplace_back(t, std::move(body));
  });
  p.client->send(MsgType::mig_begin, Buffer{1, 2, 3});
  p.client->send(MsgType::capture_request, Buffer{});
  p.engine.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, MsgType::mig_begin);
  EXPECT_EQ(got[0].second, (Buffer{1, 2, 3}));
  EXPECT_EQ(got[1].first, MsgType::capture_request);
  EXPECT_TRUE(got[1].second.empty());
}

TEST(FrameChannelTest, LargeFrameReassembledAcrossSegments) {
  ChannelPair p;
  Buffer payload(300'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  Buffer got;
  int frames = 0;
  p.server->set_on_frame([&](MsgType t, BinaryReader& r) {
    EXPECT_EQ(t, MsgType::memory_delta);
    while (!r.at_end()) got.push_back(r.u8());
    ++frames;
  });
  p.client->send(MsgType::memory_delta, payload);
  p.engine.run();
  EXPECT_EQ(frames, 1);  // one frame despite ~200 TCP segments
  EXPECT_EQ(got, payload);
}

TEST(FrameChannelTest, ManySmallFramesKeepOrder) {
  ChannelPair p;
  std::vector<std::uint32_t> seen;
  p.server->set_on_frame([&](MsgType, BinaryReader& r) { seen.push_back(r.u32()); });
  for (std::uint32_t i = 0; i < 200; ++i) {
    BinaryWriter w;
    w.u32(i);
    p.client->send(MsgType::socket_state, std::move(w));
  }
  p.engine.run();
  ASSERT_EQ(seen.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(seen[i], i);
}

TEST(FrameChannelTest, BidirectionalInterleaving) {
  ChannelPair p;
  int to_server = 0, to_client = 0;
  p.server->set_on_frame([&](MsgType, BinaryReader&) {
    ++to_server;
    p.server->send(MsgType::socket_ack, Buffer{});  // echo back
  });
  p.client->set_on_frame([&](MsgType t, BinaryReader&) {
    EXPECT_EQ(t, MsgType::socket_ack);
    ++to_client;
  });
  for (int i = 0; i < 50; ++i) p.client->send(MsgType::socket_state, Buffer(64, 1));
  p.engine.run();
  EXPECT_EQ(to_server, 50);
  EXPECT_EQ(to_client, 50);
}

TEST(FrameChannelTest, BytesSentCountsFraming) {
  ChannelPair p;
  p.client->send(MsgType::mig_begin, Buffer(100, 0));
  // 4 (length) + 1 (type) + 100 payload.
  EXPECT_EQ(p.client->bytes_sent(), 105u);
}

// ---------------------------------------------------- malformed-frame corpus

// A raw TCP sender facing a FrameChannel receiver: the bytes cross the real
// simulated stack (segmentation included), not a shortcut into the parser.
struct RawPair {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  stack::NetStack a{engine, "a", SimTime::seconds(1)};
  stack::NetStack b{engine, "b", SimTime::seconds(2)};
  stack::TcpSocket::Ptr raw;  // attacker end: writes arbitrary bytes
  std::unique_ptr<FrameChannel> server;
  std::vector<MsgType> frames;
  std::string error;

  RawPair() {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
    auto listener = b.make_tcp();
    listener->bind(kAddrB, kMigdPort);
    listener->listen(4);
    raw = a.make_tcp();
    raw->connect(net::Endpoint{kAddrB, kMigdPort});
    engine.run();
    auto ssock = listener->accept();
    EXPECT_NE(ssock, nullptr);
    listener->close();
    server = std::make_unique<FrameChannel>(std::move(ssock));
    server->set_on_frame([this](MsgType t, BinaryReader&) { frames.push_back(t); });
    server->set_on_error([this](const char* reason) { error = reason; });
  }

  void send_raw(Buffer bytes) {
    raw->send(std::move(bytes));
    engine.run();
  }
};

TEST(MalformedFrame, TruncatedHeaderWaitsWithoutErroring) {
  RawPair p;
  p.send_raw(Buffer{5, 0});  // 2 of the 4 length bytes, then the peer goes quiet
  EXPECT_FALSE(p.server->errored());
  EXPECT_TRUE(p.frames.empty());
}

TEST(MalformedFrame, SplitValidFrameReassembles) {
  RawPair p;
  BinaryWriter w;
  w.u32(3);
  w.u8(static_cast<std::uint8_t>(MsgType::socket_state));
  w.u8(0xAA);
  w.u8(0xBB);
  Buffer full = w.take();
  p.send_raw(Buffer(full.begin(), full.begin() + 3));  // truncated header
  EXPECT_TRUE(p.frames.empty());
  EXPECT_FALSE(p.server->errored());
  p.send_raw(Buffer(full.begin() + 3, full.end()));  // remainder
  ASSERT_EQ(p.frames.size(), 1u);
  EXPECT_EQ(p.frames[0], MsgType::socket_state);
}

TEST(MalformedFrame, ZeroLengthFrameRejected) {
  RawPair p;
  BinaryWriter w;
  w.u32(0);
  p.send_raw(w.take());
  EXPECT_TRUE(p.server->errored());
  EXPECT_EQ(p.error, "zero-length frame");
  EXPECT_TRUE(p.frames.empty());
}

TEST(MalformedFrame, LengthOverflowRejectedBeforeBuffering) {
  RawPair p;
  BinaryWriter w;
  w.u32(kMaxFrameLen + 1);  // claims a ~256 MiB frame; no payload ever follows
  p.send_raw(w.take());
  EXPECT_TRUE(p.server->errored());
  EXPECT_EQ(p.error, "frame length exceeds cap");
}

TEST(MalformedFrame, UnknownTypeRejected) {
  RawPair p;
  BinaryWriter w;
  w.u32(1);
  w.u8(0xEE);  // not a MsgType
  p.send_raw(w.take());
  EXPECT_TRUE(p.server->errored());
  EXPECT_EQ(p.error, "unknown frame type");
  EXPECT_TRUE(p.frames.empty());
}

TEST(MalformedFrame, TypeZeroRejected) {
  RawPair p;
  BinaryWriter w;
  w.u32(1);
  w.u8(0);  // below kMsgTypeMin
  p.send_raw(w.take());
  EXPECT_TRUE(p.server->errored());
  EXPECT_EQ(p.error, "unknown frame type");
}

TEST(MalformedFrame, PoisonedChannelIgnoresLaterValidFrames) {
  RawPair p;
  BinaryWriter bad;
  bad.u32(0);
  p.send_raw(bad.take());
  ASSERT_TRUE(p.server->errored());

  BinaryWriter good;
  good.u32(1);
  good.u8(static_cast<std::uint8_t>(MsgType::mig_begin));
  p.send_raw(good.take());
  EXPECT_TRUE(p.frames.empty());  // parsing never resumes after poisoning
  EXPECT_TRUE(p.server->errored());
}

// Duplicate capture_enabled is well-formed framing but an illegal protocol
// step; it is dvemig-verify's state machine that catches it on live channels.
TEST(MalformedFrame, DuplicateCaptureEnabledTripsProtocolChecker) {
  ChannelPair p;
  check::VerifierConfig vcfg;
  vcfg.abort_on_violation = false;
  check::Verifier verify{p.engine, vcfg};

  p.client->set_on_frame([](MsgType, BinaryReader&) {});
  p.server->set_on_frame([](MsgType, BinaryReader&) {});
  p.client->send(MsgType::mig_begin, Buffer{});
  p.client->send(MsgType::capture_request, Buffer{});
  p.engine.run();
  p.server->send(MsgType::capture_enabled, Buffer{});
  p.engine.run();
  EXPECT_TRUE(verify.clean());

  p.server->send(MsgType::capture_enabled, Buffer{});  // duplicate
  p.engine.run();
  EXPECT_FALSE(verify.clean());
  ASSERT_FALSE(verify.violations().empty());
  EXPECT_EQ(verify.violations().front().rule, "protocol.capture-enabled-unrequested");
}

// One well-formed frame as it appears on the wire: length, type, payload.
void put_frame(BinaryWriter& w, MsgType type, const Buffer& payload) {
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload);
}

Buffer mig_begin_payload() {
  BinaryWriter w;
  w.u32(4242);  // pid
  w.str("zone_x");
  w.u8(static_cast<std::uint8_t>(2));  // socket strategy
  w.u32(kAddrA.value);                 // source cluster address
  w.u64(7);                            // mig id
  w.u8(1);                             // stripe count
  return w.take();
}

/// A raw TCP connection from node 1 to node 0's migd, for feeding it bytes.
struct RawMigdConn {
  dve::Testbed bed{config()};
  stack::TcpSocket::Ptr raw = bed.node(1).node.stack().make_tcp();

  RawMigdConn() {
    raw->bind(bed.node(1).node.local_addr(), 0);
    raw->connect(net::Endpoint{bed.node(0).node.local_addr(), kMigdPort});
    bed.run_for(SimTime::milliseconds(50));
  }

  Migd& migd() { return bed.node(0).migd; }

  static dve::TestbedConfig config() {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    cfg.start_conductors = false;
    return cfg;
  }
};

// The migd layer's reaction to a poisoned inbound stream, or to well-framed
// frames in an order the protocol forbids: answer mig_abort so the source
// fails fast instead of hanging on a dead destination, and retire the
// session together with any capture session it armed.
TEST(MalformedFrame, MigdAnswersGarbageWithMigAbort) {
  BinaryWriter garbage;
  garbage.u32(1);
  garbage.u8(0xEE);  // unknown type: dest migd's channel poisons itself

  BinaryWriter state_first;
  BinaryWriter sockets;
  sockets.u32(0);
  put_frame(state_first, MsgType::socket_state, sockets.take());

  BinaryWriter seg_first;
  BinaryWriter seg;
  seg.u64(0);
  seg.u8(static_cast<std::uint8_t>(MsgType::memory_delta));
  seg.u32(0);
  seg.u32(0);
  put_frame(seg_first, MsgType::stripe_seg, seg.take());

  BinaryWriter hello_after_begin;
  BinaryWriter hello;
  hello.u64(7);
  hello.u8(1);
  put_frame(hello_after_begin, MsgType::mig_begin, mig_begin_payload());
  put_frame(hello_after_begin, MsgType::stripe_hello, hello.take());

  BinaryWriter double_begin;
  put_frame(double_begin, MsgType::mig_begin, mig_begin_payload());
  put_frame(double_begin, MsgType::mig_begin, mig_begin_payload());

  // Well-framed frames whose payloads do not match their fields.
  BinaryWriter short_begin;
  const Buffer begin = mig_begin_payload();
  put_frame(short_begin, MsgType::mig_begin, Buffer(begin.begin(), begin.begin() + 6));

  BinaryWriter untailed_begin;
  put_frame(untailed_begin, MsgType::mig_begin,
            Buffer(begin.begin(), begin.end() - 9));  // no mig_id | stripe_count

  BinaryWriter long_capture;
  BinaryWriter capture;
  capture.u32(5);  // five specs announced, one present
  CaptureSpec{net::IpProto::tcp, true, {kAddrA, 4000}, 80}.serialize(capture);
  put_frame(long_capture, MsgType::mig_begin, begin);
  put_frame(long_capture, MsgType::capture_request, capture.take());

  BinaryWriter bad_proto;
  BinaryWriter record;
  record.u32(1);   // one record
  record.u8(99);   // neither TCP nor UDP
  record.u64(1);   // socket key
  record.u8(static_cast<std::uint8_t>(SectionFlags::stat));
  record.bytes(Buffer(64, 0));
  put_frame(bad_proto, MsgType::mig_begin, begin);
  put_frame(bad_proto, MsgType::socket_state, record.take());

  // A socket_state frame holding one complete TCP record.
  const auto tcp_record = [&](const TcpImage& img) {
    BinaryWriter records;
    records.u32(1);
    SocketDeltaTracker().emit_tcp(img, records, /*force_all=*/true);
    BinaryWriter w;
    put_frame(w, MsgType::mig_begin, begin);
    put_frame(w, MsgType::socket_state, records.take());
    return w.take();
  };
  TcpImage stateless;  // a state byte that names no TCP state
  stateless.state = static_cast<stack::TcpState>(200);
  TcpImage listener;
  listener.state = stack::TcpState::listen;
  listener.listening = true;
  listener.accept_children.push_back(stateless);
  TcpImage nested;  // children of children, 100 deep
  for (int i = 0; i < 100; ++i) {
    TcpImage outer;
    outer.accept_children.push_back(std::move(nested));
    nested = std::move(outer);
  }

  // A stripe_hello that cannot open a stripe channel.
  const auto hello_frame = [](std::uint8_t index, std::size_t trailing) {
    BinaryWriter payload;
    payload.u64(7);  // the mig id of mig_begin_payload()
    payload.u8(index);
    for (std::size_t i = 0; i < trailing; ++i) payload.u8(0);
    BinaryWriter w;
    put_frame(w, MsgType::stripe_hello, payload.take());
    return w.take();
  };

  const std::pair<const char*, Buffer> rows[] = {
      {"garbage", garbage.take()},
      {"socket_state first", state_first.take()},
      {"stripe_seg first", seg_first.take()},
      {"stripe_hello after mig_begin", hello_after_begin.take()},
      {"duplicate mig_begin", double_begin.take()},
      {"truncated mig_begin", short_begin.take()},
      {"mig_begin without stripe fields", untailed_begin.take()},
      {"capture_request count past payload", long_capture.take()},
      {"socket record with proto 99", bad_proto.take()},
      {"socket record with TCP state 200", tcp_record(stateless)},
      {"socket record with a child in TCP state 200", tcp_record(listener)},
      {"socket record nesting children 100 deep", tcp_record(nested)},
      {"stripe_hello with trailing bytes", hello_frame(1, 1)},
      {"stripe_hello with index 0", hello_frame(0, 0)},
      {"stripe_hello index at kMaxParallelism", hello_frame(kMaxParallelism, 0)},
  };
  for (const auto& [name, bytes] : rows) {
    SCOPED_TRACE(name);
    RawMigdConn c;
    ASSERT_EQ(c.raw->state(), stack::TcpState::established);
    EXPECT_EQ(c.migd().dest_session_count(), 1u);

    c.raw->send(bytes);
    c.bed.run_for(SimTime::milliseconds(100));

    Buffer reply = c.raw->read_bytes().copy();
    ASSERT_GE(reply.size(), 5u);
    BinaryReader r(reply);
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(MsgType::mig_abort));
    EXPECT_EQ(c.migd().dest_session_count(), 0u);
    EXPECT_EQ(c.migd().capture().active_sessions(), 0u);
  }
}

// A stripe_hello that does not fit the migration it names is answered with
// mig_abort on its own connection and released. The connection already open
// for that migration (a primary, or a stripe with the same index) is left
// alone, and once the source closes it nothing is left behind.
TEST(MalformedFrame, MigdRejectsStripeHelloThatDoesNotFitItsMigration) {
  const auto frame = [](MsgType type, const Buffer& payload) {
    BinaryWriter w;
    put_frame(w, type, payload);
    return w.take();
  };
  const auto hello = [&frame](std::uint8_t index) {
    BinaryWriter w;
    w.u64(7);  // the mig id of mig_begin_payload()
    w.u8(index);
    return frame(MsgType::stripe_hello, w.take());
  };
  Buffer two_stripes = mig_begin_payload();
  two_stripes.back() = 2;  // stripe count

  struct Row {
    const char* name;
    Buffer first;  // sent on the first connection
    std::uint8_t probe_index;
  };
  const Row rows[] = {
      {"hello index past stripe_count", frame(MsgType::mig_begin, two_stripes), 2},
      {"hello index already attached", hello(1), 1},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    RawMigdConn c;
    stack::TcpSocket::Ptr probe = c.bed.node(1).node.stack().make_tcp();
    probe->bind(c.bed.node(1).node.local_addr(), 0);
    probe->connect(net::Endpoint{c.bed.node(0).node.local_addr(), kMigdPort});
    c.raw->send(row.first);
    c.bed.run_for(SimTime::milliseconds(50));
    ASSERT_EQ(probe->state(), stack::TcpState::established);

    probe->send(hello(row.probe_index));
    c.bed.run_for(SimTime::milliseconds(100));
    Buffer reply = probe->read_bytes().copy();
    ASSERT_GE(reply.size(), 5u);
    BinaryReader r(reply);
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(MsgType::mig_abort));
    EXPECT_EQ(probe->state(), stack::TcpState::close_wait);  // released by migd
    EXPECT_TRUE(c.raw->read_bytes().empty());
    EXPECT_EQ(c.migd().dest_session_count(), 1u);  // the first connection

    probe->close();
    c.raw->close();
    c.bed.run_for(SimTime::milliseconds(100));
    EXPECT_EQ(c.migd().dest_session_count(), 0u);
    EXPECT_EQ(c.migd().capture().active_sessions(), 0u);
  }
}

// A kill fault inside the destination's own mig_abort send re-enters the
// session's teardown through the channel's error callback. The session must
// already be retired by then, so it is torn down exactly once.
TEST(MalformedFrame, KillDuringMigAbortTearsDownOnce) {
  struct KillMigAbort : FrameChannel::FaultHook {
    int kills{0};
    FrameChannel::FaultAction on_send(const FrameChannel& /*ch*/, MsgType type,
                                      std::size_t /*payload_len*/) override {
      if (type != MsgType::mig_abort) return FrameChannel::FaultAction::pass;
      kills += 1;
      return FrameChannel::FaultAction::kill;
    }
  };
  RawMigdConn c;
  ASSERT_EQ(c.raw->state(), stack::TcpState::established);
  KillMigAbort hook;
  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  FrameChannel::set_fault_hook(&hook);

  BinaryWriter w;
  w.u32(1);
  w.u8(0xEE);  // unknown type: the destination answers with mig_abort
  c.raw->send(w.take());
  c.bed.run_for(SimTime::milliseconds(100));
  FrameChannel::set_fault_hook(nullptr);
  Log::set_sink(nullptr);

  EXPECT_EQ(hook.kills, 1);
  EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                          [](const std::string& l) {
                            return l.find("torn down") != std::string::npos;
                          }),
            1);
  EXPECT_EQ(c.migd().dest_session_count(), 0u);
  EXPECT_EQ(c.migd().capture().active_sessions(), 0u);
}

// transd requests and their acks travel as fixed-size UDP datagrams: a u64
// request id plus a 17-byte TranslationRule, and the u64 id back. Anything
// else reaching either port during a migration — a truncated datagram, an
// unknown protocol byte, an ack for a request nobody sent, a replayed ack —
// is dropped with a warning instead of being parsed (a short read aborts the
// simulator), and the migration it lands in still succeeds.
TEST(MalformedDatagram, StrayControlDatagramsLeaveMigrationIntact) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.start_conductors = false;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 3;
  zs.db_addr = bed.db_node()->local_addr();
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  bed.run_for(SimTime::seconds(1));

  stack::NetStack& db = bed.db_node()->stack();
  auto stray = db.make_udp();
  stray->bind(bed.db_node()->local_addr(), 0);
  const net::Endpoint transd{bed.db_node()->local_addr(), kTransdPort};
  auto datagram = [](std::size_t n) { return Buffer(n, 0xAB); };

  // The first translation request reaching the DB's transd names the
  // source's ack port; the garbage follows it at once, ahead of the real ack.
  std::optional<net::Endpoint> ack_port;
  stack::HookHandle on_request = db.netfilter().register_hook(
      stack::Hook::local_in, 100, [&](net::Packet& p) {
        if (ack_port || p.proto != net::IpProto::udp || p.dport() != kTransdPort) {
          return stack::Verdict::accept;
        }
        ack_port = net::Endpoint{p.src, p.sport()};
        bed.engine().schedule_after(SimTime::zero(), [&] {
          stray->send_to(transd, datagram(3));
          BinaryWriter bad_proto;
          bad_proto.u64(77);
          TranslationRule{static_cast<net::IpProto>(99), transd, transd, transd.addr}
              .serialize(bad_proto);
          stray->send_to(transd, bad_proto.take());
          stray->send_to(*ack_port, datagram(3));
          BinaryWriter unknown;
          unknown.u64(999'999);
          stray->send_to(*ack_port, unknown.take());
        });
        return stack::Verdict::accept;
      });
  // transd's genuine ack is replayed shortly after it went out.
  std::optional<std::uint64_t> acked;
  stack::HookHandle on_ack = db.netfilter().register_hook(
      stack::Hook::local_out, 100, [&](net::Packet& p) {
        if (acked || p.proto != net::IpProto::udp || p.sport() != kTransdPort) {
          return stack::Verdict::accept;
        }
        Buffer copy = p.payload.copy();
        BinaryReader r(copy);
        acked = r.u64();
        bed.engine().schedule_after(SimTime::microseconds(100), [&, copy] {
          stray->send_to(*ack_port, copy);
        });
        return stack::Verdict::accept;
      });

  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  const auto stats =
      dve::migrate_and_wait(bed, proc->pid(), 0, 1, {SocketMigStrategy::collective},
                            SimTime::seconds(3));
  Log::set_sink(nullptr);
  on_request.release();
  on_ack.release();

  ASSERT_TRUE(ack_port.has_value());
  ASSERT_TRUE(acked.has_value());
  const auto logged = [&](const std::string& needle) {
    return std::count_if(lines.begin(), lines.end(), [&](const std::string& l) {
      return l.find(needle) != std::string::npos;
    });
  };
  EXPECT_EQ(logged("dropped 3-byte datagram"), 2);  // once per port
  EXPECT_EQ(logged("for protocol 99"), 1);
  EXPECT_EQ(logged("unexpected translation ack 999999"), 1);
  EXPECT_EQ(logged("unexpected translation ack " + std::to_string(*acked)), 1);

  ASSERT_TRUE(stats);
  EXPECT_TRUE(stats->success);
  EXPECT_EQ(bed.node(0).node.find(stats->pid), nullptr);
  auto moved = bed.node(1).node.find(stats->pid);
  ASSERT_NE(moved, nullptr);
  // Only the genuine request installed a rule, and the DB session runs on.
  EXPECT_EQ(bed.db_translation().active_rules(), 1u);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t db_before = app->db_responses();
  bed.run_for(SimTime::seconds(2));
  EXPECT_GT(app->db_responses(), db_before);
}

// ---------------------------------------------------------- netfilter edges

TEST(NetfilterEdge, HookReleasingItselfDuringRun) {
  sim::Engine engine;
  stack::NetStack st(engine, "x", SimTime::zero());
  int calls = 0;
  stack::HookHandle self;
  self = st.netfilter().register_hook(stack::Hook::local_in, 0,
                                      [&](net::Packet&) {
                                        ++calls;
                                        self.release();  // one-shot hook
                                        return stack::Verdict::accept;
                                      });
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1});
  net::Packet q = p;
  st.netfilter().run(stack::Hook::local_in, p);
  st.netfilter().run(stack::Hook::local_in, q);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.netfilter().hook_count(stack::Hook::local_in), 0u);
}

TEST(NetfilterEdge, StolenStopsLowerPriorityHooks) {
  sim::Engine engine;
  stack::NetStack st(engine, "x", SimTime::zero());
  int later_calls = 0;
  stack::HookHandle stealer = st.netfilter().register_hook(
      stack::Hook::local_in, 0, [](net::Packet&) { return stack::Verdict::stolen; });
  stack::HookHandle later = st.netfilter().register_hook(
      stack::Hook::local_in, 10, [&](net::Packet&) {
        ++later_calls;
        return stack::Verdict::accept;
      });
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1});
  EXPECT_EQ(st.netfilter().run(stack::Hook::local_in, p), stack::Verdict::stolen);
  EXPECT_EQ(later_calls, 0);
  stealer.release();
  later.release();
}

TEST(NetfilterEdge, MutationsVisibleDownstream) {
  sim::Engine engine;
  stack::NetStack st(engine, "x", SimTime::zero());
  stack::HookHandle first = st.netfilter().register_hook(
      stack::Hook::local_out, -5, [](net::Packet& p) {
        p.payload.push_back(0xEE);
        return stack::Verdict::accept;
      });
  std::size_t seen_len = 0;
  stack::HookHandle second = st.netfilter().register_hook(
      stack::Hook::local_out, 5, [&](net::Packet& p) {
        seen_len = p.payload.size();
        return stack::Verdict::accept;
      });
  net::Packet p = net::make_udp({kAddrA, 1}, {kAddrB, 2}, Buffer{1, 2});
  st.netfilter().run(stack::Hook::local_out, p);
  EXPECT_EQ(seen_len, 3u);
  first.release();
  second.release();
}

}  // namespace
}  // namespace dvemig::mig
