// dvemig-verify tests: deliberate corruption must trip the auditor, a legal
// migration must not. Three layers match the verifier's three audit families —
// protocol state machine (pure unit tests), socket-table/TCP invariants
// (corrupted live stacks), and capture dedup — plus a full-testbed regression
// that runs complete live migrations under the auditor with zero violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "src/check/verifier.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/net/switch.hpp"
#include "src/stack/net_stack.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig {
namespace {

using check::ProtocolChecker;
using check::Verifier;
using check::VerifierConfig;
using mig::MsgType;

VerifierConfig lenient() {
  VerifierConfig cfg;
  cfg.abort_on_violation = false;  // tests inspect violations() instead
  return cfg;
}

bool has_rule(const Verifier& v, std::string_view rule) {
  return std::any_of(v.violations().begin(), v.violations().end(),
                     [&](const check::Violation& viol) { return viol.rule == rule; });
}

// ============================================================ protocol checker

// Replays frame sequences against both endpoints' channels, the way the live
// observer sees them: each logical frame is outbound on the sender's channel
// and inbound on the receiver's.
struct ProtocolTrace {
  std::vector<std::string> rules;
  ProtocolChecker checker{[this](const std::string& rule, const std::string&) {
    rules.push_back(rule);
  }};
  int src_chan{0};
  int dst_chan{0};

  void src_sends(MsgType t) {
    checker.on_frame(&src_chan, /*outbound=*/true, t);
    checker.on_frame(&dst_chan, /*outbound=*/false, t);
  }
  void dst_sends(MsgType t) {
    checker.on_frame(&dst_chan, /*outbound=*/true, t);
    checker.on_frame(&src_chan, /*outbound=*/false, t);
  }
  bool has(std::string_view rule) const {
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
  }
};

TEST(ProtocolChecker, LegalLiveMigrationSequenceIsClean) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::memory_delta);   // precopy round 1
  t.src_sends(MsgType::memory_delta);   // precopy round 2
  t.src_sends(MsgType::capture_request);
  t.dst_sends(MsgType::capture_enabled);
  t.src_sends(MsgType::socket_state);
  t.dst_sends(MsgType::socket_ack);
  t.src_sends(MsgType::memory_delta);   // freeze-phase final delta
  t.src_sends(MsgType::process_image);
  t.dst_sends(MsgType::resume_done);
  EXPECT_TRUE(t.rules.empty()) << t.rules.front();
  EXPECT_EQ(t.checker.frames_seen(), 20u);  // 10 frames, 2 channel views each
  t.checker.on_closed(&t.src_chan);
  t.checker.on_closed(&t.dst_chan);
  EXPECT_EQ(t.checker.active_channels(), 0u);
}

TEST(ProtocolChecker, AbortOnlySequenceIsClean) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::memory_delta);
  t.dst_sends(MsgType::mig_abort);
  EXPECT_TRUE(t.rules.empty());
}

TEST(ProtocolChecker, ImageWithSocketStateButNoCaptureTrips) {
  // Section V-B: shipping socket state without ever arming the loss-prevention
  // filters means in-flight packets are silently dropped.
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::socket_state);
  t.dst_sends(MsgType::socket_ack);
  t.src_sends(MsgType::process_image);
  EXPECT_TRUE(t.has("protocol.image-before-capture"));
}

TEST(ProtocolChecker, ImageBeforeCaptureAckTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::capture_request);
  t.src_sends(MsgType::process_image);  // filters not confirmed armed yet
  EXPECT_TRUE(t.has("protocol.image-while-capture-pending"));
}

TEST(ProtocolChecker, DuplicateCaptureEnabledTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::capture_request);
  t.dst_sends(MsgType::capture_enabled);
  t.dst_sends(MsgType::capture_enabled);  // spurious second ack
  EXPECT_TRUE(t.has("protocol.capture-enabled-unrequested"));
}

TEST(ProtocolChecker, DeltaAfterImageTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::process_image);
  t.src_sends(MsgType::memory_delta);
  EXPECT_TRUE(t.has("protocol.delta-after-image"));
}

TEST(ProtocolChecker, ResumeBeforeImageTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.dst_sends(MsgType::resume_done);
  EXPECT_TRUE(t.has("protocol.resume-before-image"));
}

TEST(ProtocolChecker, FrameAfterAbortTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::mig_abort);
  t.src_sends(MsgType::memory_delta);
  EXPECT_TRUE(t.has("protocol.frame-after-abort"));
}

TEST(ProtocolChecker, FrameAfterResumeTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::process_image);
  t.dst_sends(MsgType::resume_done);
  t.src_sends(MsgType::memory_delta);
  EXPECT_TRUE(t.has("protocol.frame-after-resume"));
}

TEST(ProtocolChecker, ChannelMustOpenWithMigBegin) {
  ProtocolTrace t;
  t.src_sends(MsgType::memory_delta);
  EXPECT_TRUE(t.has("protocol.first-frame"));
}

TEST(ProtocolChecker, DestMayNotSendSourceFrames) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.dst_sends(MsgType::memory_delta);  // only the source ships memory
  EXPECT_TRUE(t.has("protocol.direction"));
}

TEST(ProtocolChecker, DuplicateBeginTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::mig_begin);
  EXPECT_TRUE(t.has("protocol.duplicate-begin"));
}

TEST(ProtocolChecker, DuplicateImageTrips) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::process_image);
  t.src_sends(MsgType::process_image);
  EXPECT_TRUE(t.has("protocol.duplicate-image"));
}

// ==================================================== socket-table/TCP audits

const net::Ipv4Addr kAddrA = net::Ipv4Addr::octets(10, 0, 0, 1);
const net::Ipv4Addr kAddrB = net::Ipv4Addr::octets(10, 0, 0, 2);

struct AuditFixture : ::testing::Test {
  sim::Engine engine;
  net::Switch sw{engine, net::LinkConfig{1e9, SimTime::microseconds(25)}};
  stack::NetStack a{engine, "hostA", SimTime::seconds(100)};
  stack::NetStack b{engine, "hostB", SimTime::seconds(300)};
  Verifier verify{engine, lenient()};
  stack::TcpSocket::Ptr client, server;

  void SetUp() override {
    a.add_interface(kAddrA,
                    sw.attach(kAddrA, [this](net::Packet p) { a.rx(std::move(p)); }));
    b.add_interface(kAddrB,
                    sw.attach(kAddrB, [this](net::Packet p) { b.rx(std::move(p)); }));
    verify.watch_stack(a);
    verify.watch_stack(b);

    auto listener = b.make_tcp();
    listener->bind(kAddrB, 9000);
    listener->listen(8);
    client = a.make_tcp();
    client->connect(net::Endpoint{kAddrB, 9000});
    engine.run();
    server = listener->accept();
    ASSERT_NE(server, nullptr);
    listener->close();
    engine.run();
  }
};

TEST_F(AuditFixture, EstablishedPairAuditsClean) {
  // The hook audited after every event of the handshake; nothing tripped.
  EXPECT_GT(verify.audits_run(), 0u);
  EXPECT_GT(verify.checks_run(), 0u);
  EXPECT_TRUE(verify.clean());
}

TEST_F(AuditFixture, SndUnaAheadOfSndNxtTrips) {
  client->cb().snd_una = client->cb().snd_nxt + 1;
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "tcp.snd-una-ahead"));
}

TEST_F(AuditFixture, HashedFlagClearedWhileStillInEhashTrips) {
  // Detach clears the flag; re-inserting behind the socket's back leaves the
  // flag saying unhashed while the table disagrees.
  client->detach();
  a.table().ehash_insert(client, stack::FourTuple{client->local(), client->remote()});
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "ehash.flag-mismatch"));
}

TEST_F(AuditFixture, EhashRemovalWithoutFlagClearTrips) {
  // The inverse corruption: unhash from the table but leave the socket
  // believing it is still reachable (a violated Section V-C unhash step).
  a.table().ehash_remove(stack::FourTuple{client->local(), client->remote()});
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "ehash.dangling-flag"));
}

TEST_F(AuditFixture, ReceiveByteCounterDriftTrips) {
  server->cb().receive_queue_bytes += 7;
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "tcp.rx-byte-counter"));
}

TEST_F(AuditFixture, WriteQueueGapTrips) {
  auto& cb = client->cb();
  cb.write_queue.push_back(stack::TcpTxSegment{cb.snd_nxt, 0, Buffer(10, 0xAB), 0, -1, 0});
  cb.write_queue.push_back(
      stack::TcpTxSegment{cb.snd_nxt + 11, 0, Buffer(5, 0xCD), 0, -1, 0});  // hole
  cb.snd_una = cb.write_queue.front().seq;
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "tcp.write-queue-gap"));
}

TEST_F(AuditFixture, StaleOooSegmentTrips) {
  auto& cb = server->cb();
  const std::uint32_t seq = cb.rcv_nxt - 10;  // at/before rcv_nxt: never drained
  cb.ooo_queue[seq] = stack::TcpRxSegment{seq, Buffer(4, 0xEE), false};
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "tcp.ooo-not-beyond-rcv-nxt"));
}

TEST_F(AuditFixture, BacklogWithoutUserLockTrips) {
  client->cb().backlog.emplace_back();
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "tcp.backlog-unlocked"));
}

TEST_F(AuditFixture, ViolationCountKeepsCountingPastRecordCap) {
  client->cb().snd_una = client->cb().snd_nxt + 1;
  const std::uint64_t before = verify.violation_count();
  verify.audit_now();
  verify.audit_now();
  EXPECT_GT(verify.violation_count(), before);
  EXPECT_FALSE(verify.clean());
}

// ============================================================== capture dedup

TEST(CaptureAudit, DuplicateQueuedSequenceTrips) {
  sim::Engine engine;
  stack::NetStack st{engine, "host", SimTime::seconds(100)};
  mig::CaptureManager cm{st};
  Verifier verify{engine, lenient()};
  verify.watch_capture(cm);

  const std::uint64_t session = cm.begin_session();
  net::Packet p;
  p.proto = net::IpProto::tcp;
  p.src = net::Ipv4Addr::octets(10, 0, 0, 9);
  p.tcp.sport = 4321;
  p.tcp.dport = 9000;
  p.tcp.seq = 777;
  cm.inject_queued_for_test(session, p);
  verify.audit_now();
  EXPECT_TRUE(verify.clean());  // one copy is fine

  cm.inject_queued_for_test(session, p);  // dedup filter bypassed: corruption
  verify.audit_now();
  EXPECT_TRUE(has_rule(verify, "capture.duplicate-seq"));
  cm.abort_session(session);
}

// ================================================== full-migration regression

// The acceptance test: complete live migrations on the real testbed, audited
// after every few events, finish with zero violations — including the protocol
// state machine fed by the live FrameChannel observer.
TEST(VerifiedMigration, LiveMigrationRunsCleanUnderAuditor) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  dve::Testbed bed{cfg};

  VerifierConfig vcfg = lenient();
  vcfg.every_n_events = 16;  // the testbed fires millions of events
  Verifier verify{bed.engine(), vcfg};
  for (std::size_t i = 0; i < bed.node_count(); ++i) {
    verify.watch_stack(bed.node(i).node.stack());
    verify.watch_capture(bed.node(i).migd.capture());
  }
  verify.watch_stack(bed.db_node()->stack());

  dve::ZoneServerConfig zs;
  zs.zone = 3;
  zs.db_addr = bed.db_node()->local_addr();
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  const Pid pid = proc->pid();
  bed.run_for(SimTime::seconds(1));

  const auto stats =
      dve::migrate_and_wait(bed, pid, 0, 1,
                            {mig::SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5));

  ASSERT_TRUE(stats);
  EXPECT_TRUE(stats->success);
  EXPECT_GT(verify.audits_run(), 0u);
  EXPECT_GT(verify.checks_run(), 0u);
  // The live channels really were observed end to end.
  EXPECT_GT(verify.protocol().frames_seen(), 0u);
  EXPECT_TRUE(verify.clean()) << verify.violations().front().rule << ": "
                              << verify.violations().front().detail;
}

}  // namespace
}  // namespace dvemig
