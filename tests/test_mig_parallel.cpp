// Parallel pipelined data path (PMigrate-style striping) tests:
//  - shard helpers (static work split used by every sharded cost);
//  - StripeReassembler hardening (ordering, overlap, caps, poisoning);
//  - protocol-checker stripe rules;
//  - stripe frames on the wire only at parallelism > 1;
//  - the headline equivalence property: parallelism in {1, 2, 8} produces
//    byte-identical process and socket images on the destination and identical
//    MigrationStats byte counts, for both stop-and-copy and live precopy;
//  - the destination lifecycle of a striped migration: the session and every
//    channel released, success or failure, with the mig.receive span;
//  - the destination's striping driven by raw frame clients: parking before
//    mig_begin, its cap, and release of a stripe whose migration never began.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/check/protocol_checker.hpp"
#include "src/common/log.hpp"
#include "src/ckpt/dirty_tracker.hpp"
#include "src/ckpt/image.hpp"
#include "src/dve/scenario.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/migd.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/socket_image.hpp"
#include "src/obs/span.hpp"

namespace dvemig {
namespace {

using check::ProtocolChecker;
using ckpt::DirtyTracker;
using mig::FrameChannel;
using mig::MsgType;
using mig::StripeReassembler;

// ================================================================ shard split

TEST(ShardSplit, RangesPartitionExactly) {
  const auto ranges = DirtyTracker::shard_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  // First count % workers shards get the extra item: 3, 3, 2, 2.
  EXPECT_EQ(ranges[0].size(), 3u);
  EXPECT_EQ(ranges[1].size(), 3u);
  EXPECT_EQ(ranges[2].size(), 2u);
  EXPECT_EQ(ranges[3].size(), 2u);
  std::size_t at = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, at);
    at = r.end;
  }
  EXPECT_EQ(at, 10u);
}

TEST(ShardSplit, FewerItemsThanWorkersYieldsOnlyNonEmptyShards) {
  const auto ranges = DirtyTracker::shard_ranges(3, 8);
  ASSERT_EQ(ranges.size(), 3u);
  for (const auto& r : ranges) EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(DirtyTracker::shard_ranges(0, 8).empty());
  EXPECT_TRUE(DirtyTracker::shard_ranges(5, 0).empty());
}

TEST(ShardSplit, MaxShardIsCeilDivision) {
  EXPECT_EQ(DirtyTracker::max_shard(10, 4), 3u);
  EXPECT_EQ(DirtyTracker::max_shard(8, 4), 2u);
  EXPECT_EQ(DirtyTracker::max_shard(3, 8), 1u);
  EXPECT_EQ(DirtyTracker::max_shard(0, 4), 0u);
  EXPECT_EQ(DirtyTracker::max_shard(7, 1), 7u);
}

// ============================================================ reassembler unit

Buffer make_seg(std::uint64_t seq, MsgType inner, std::uint32_t total,
                std::uint32_t off, const std::vector<std::uint8_t>& chunk) {
  BinaryWriter w;
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(inner));
  w.u32(total);
  w.u32(off);
  w.bytes(std::span<const std::uint8_t>(chunk.data(), chunk.size()));
  return w.take();
}

struct ReasmHarness {
  std::vector<std::pair<MsgType, Buffer>> delivered;
  std::string error;
  StripeReassembler reasm{
      [this](MsgType t, BinaryReader& r) {
        const auto body = r.span(r.remaining());
        delivered.emplace_back(t, Buffer(body.begin(), body.end()));
      },
      [this](const char* reason) { error = reason; }};

  void feed(const Buffer& seg) {
    BinaryReader r({seg.data(), seg.size()});
    reasm.on_segment(r);
  }
};

TEST(StripeReassembler, DeliversLogicalFramesInSeqOrder) {
  ReasmHarness h;
  // Frame 1 (one chunk) arrives before frame 0 (two chunks, second first).
  h.feed(make_seg(1, MsgType::socket_state, 2, 0, {9, 9}));
  EXPECT_TRUE(h.delivered.empty());
  h.feed(make_seg(0, MsgType::memory_delta, 4, 2, {3, 4}));
  EXPECT_TRUE(h.delivered.empty());
  h.feed(make_seg(0, MsgType::memory_delta, 4, 0, {1, 2}));
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].first, MsgType::memory_delta);
  EXPECT_EQ(h.delivered[0].second, (Buffer{1, 2, 3, 4}));
  EXPECT_EQ(h.delivered[1].first, MsgType::socket_state);
  EXPECT_EQ(h.delivered[1].second, (Buffer{9, 9}));
  EXPECT_TRUE(h.error.empty());
  EXPECT_EQ(h.reasm.frames_delivered(), 2u);
  EXPECT_EQ(h.reasm.segments_received(), 3u);
}

TEST(StripeReassembler, EmptyLogicalFrameCompletesImmediately) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::capture_request, 0, 0, {}));
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_TRUE(h.delivered[0].second.empty());
}

TEST(StripeReassembler, TruncatedHeaderPoisons) {
  ReasmHarness h;
  Buffer short_seg(10, 0);
  h.feed(short_seg);
  EXPECT_TRUE(h.reasm.errored());
  EXPECT_EQ(h.error, "truncated stripe segment header");
}

TEST(StripeReassembler, UnknownOrNestedInnerTypePoisons) {
  {
    ReasmHarness h;
    h.feed(make_seg(0, static_cast<MsgType>(99), 1, 0, {1}));
    EXPECT_EQ(h.error, "stripe segment carries unknown type");
  }
  {
    ReasmHarness h;
    h.feed(make_seg(0, MsgType::stripe_seg, 1, 0, {1}));
    EXPECT_EQ(h.error, "nested stripe framing");
  }
}

TEST(StripeReassembler, StaleSeqPoisons) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::memory_delta, 1, 0, {7}));
  ASSERT_EQ(h.delivered.size(), 1u);
  h.feed(make_seg(0, MsgType::memory_delta, 1, 0, {7}));
  EXPECT_EQ(h.error, "stripe segment revisits delivered frame");
}

TEST(StripeReassembler, OversizeTotalPoisons) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::memory_delta, mig::kMaxFrameLen + 1, 0, {1}));
  EXPECT_EQ(h.error, "stripe frame length exceeds cap");
}

TEST(StripeReassembler, ChunkBeyondTotalPoisons) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::memory_delta, 3, 2, {1, 2}));
  EXPECT_EQ(h.error, "stripe segment overflows frame");
  ReasmHarness h2;
  h2.feed(make_seg(0, MsgType::memory_delta, 3, 4, {}));
  EXPECT_EQ(h2.error, "stripe segment overflows frame");
}

TEST(StripeReassembler, DuplicateAndOverlappingChunksPoison) {
  {
    ReasmHarness h;
    h.feed(make_seg(0, MsgType::memory_delta, 4, 0, {1, 2}));
    h.feed(make_seg(0, MsgType::memory_delta, 4, 0, {1, 2}));
    EXPECT_EQ(h.error, "duplicate stripe segment");
  }
  {
    ReasmHarness h;  // new chunk overlaps the previous one's tail
    h.feed(make_seg(0, MsgType::memory_delta, 8, 0, {1, 2, 3, 4}));
    h.feed(make_seg(0, MsgType::memory_delta, 8, 2, {5, 6, 7, 8}));
    EXPECT_EQ(h.error, "overlapping stripe segments");
  }
  {
    ReasmHarness h;  // new chunk overlaps the next one's head
    h.feed(make_seg(0, MsgType::memory_delta, 8, 4, {5, 6, 7, 8}));
    h.feed(make_seg(0, MsgType::memory_delta, 8, 2, {3, 4, 5}));
    EXPECT_EQ(h.error, "overlapping stripe segments");
  }
}

TEST(StripeReassembler, MismatchedFrameHeaderPoisons) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::memory_delta, 4, 0, {1, 2}));
  h.feed(make_seg(0, MsgType::socket_state, 4, 2, {3, 4}));
  EXPECT_EQ(h.error, "stripe segments disagree on frame header");
}

TEST(StripeReassembler, PendingBacklogCapPoisons) {
  ReasmHarness h;
  // Frames 1..kMax stay incomplete (frame 0 never arrives, nothing delivers).
  for (std::uint64_t seq = 1; seq <= StripeReassembler::kMaxPendingStripeFrames;
       ++seq) {
    h.feed(make_seg(seq, MsgType::memory_delta, 2, 0, {1}));
    ASSERT_TRUE(h.error.empty()) << "at seq " << seq;
  }
  h.feed(make_seg(StripeReassembler::kMaxPendingStripeFrames + 1,
                  MsgType::memory_delta, 2, 0, {1}));
  EXPECT_EQ(h.error, "stripe reassembly backlog");
}

TEST(StripeReassembler, PoisonedStreamIgnoresLaterSegments) {
  ReasmHarness h;
  h.feed(make_seg(0, MsgType::stripe_seg, 1, 0, {1}));
  ASSERT_TRUE(h.reasm.errored());
  const auto segs = h.reasm.segments_received();
  h.feed(make_seg(1, MsgType::memory_delta, 1, 0, {1}));
  EXPECT_EQ(h.reasm.segments_received(), segs);  // dropped, not processed
  EXPECT_TRUE(h.delivered.empty());
}

// ======================================================= checker stripe rules

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

TEST(ProtocolCheckerStripe, StripeChannelLifecycleIsClean) {
  ProtocolTrace t;
  t.src_sends(MsgType::stripe_hello);
  t.src_sends(MsgType::stripe_seg);
  t.src_sends(MsgType::stripe_seg);
  t.src_sends(MsgType::mig_abort);  // teardown is always legal
  EXPECT_TRUE(t.rules.empty()) << t.rules.front();
}

TEST(ProtocolCheckerStripe, SegsOnPrimaryAfterBeginAreClean) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::stripe_seg);  // primary doubles as stripe 0
  t.dst_sends(MsgType::resume_done);
  EXPECT_FALSE(t.has("protocol.stripe-seg-unexpected"));
}

TEST(ProtocolCheckerStripe, MisplacedHelloFires) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  t.src_sends(MsgType::stripe_hello);  // hello must open the channel
  EXPECT_TRUE(t.has("protocol.stripe-hello-misplaced"));
}

TEST(ProtocolCheckerStripe, SegWithoutHelloOrBeginFires) {
  ProtocolTrace t;
  t.src_sends(MsgType::stripe_seg);
  EXPECT_TRUE(t.has("protocol.first-frame"));
  EXPECT_TRUE(t.has("protocol.stripe-seg-unexpected"));
}

TEST(ProtocolCheckerStripe, ControlFrameOnStripeChannelFires) {
  ProtocolTrace t;
  t.src_sends(MsgType::stripe_hello);
  t.src_sends(MsgType::memory_delta);
  EXPECT_TRUE(t.has("protocol.frame-on-stripe-channel"));
}

TEST(ProtocolCheckerStripe, WrongDirectionStripeFramesFire) {
  ProtocolTrace t;
  t.src_sends(MsgType::mig_begin);
  // Open a second, dest-originated channel: hello from the dest is backwards.
  int rogue_src = 0, rogue_dst = 0;
  t.checker.on_frame(&rogue_dst, /*outbound=*/true, MsgType::stripe_hello);
  t.checker.on_frame(&rogue_src, /*outbound=*/false, MsgType::stripe_hello);
  // Role inference marks the sender as "source", so direction reads legal on
  // the rogue channel itself — but a dest-bound reply on it now misfires.
  t.checker.on_frame(&rogue_dst, /*outbound=*/true, MsgType::socket_ack);
  EXPECT_TRUE(t.has("protocol.frame-on-stripe-channel"));
}

// ===================================================== end-to-end equivalence

/// Serialized destination-side process image with run-varying identifiers
/// (global pid/tid counters) normalised away.
Buffer normalized_image(const proc::Process& p) {
  ckpt::ProcessImage img = ckpt::snapshot_process(p);
  img.pid = Pid{};
  std::uint32_t next_tid = 1;
  for (auto& th : img.threads) {
    th.tid = next_tid++;
    // The synthetic register file embeds the (globally allocated) pid in the
    // high half of every register; mask it, keep the thread-local low half.
    for (auto& reg : th.gp_regs) reg &= 0xFFFFFFFFull;
  }
  BinaryWriter w;
  img.serialize(w);
  return w.take();
}

/// Full socket image dump (every section, fresh tracker) in fd order. The
/// node-global sock id is a run-local artifact (the dest allocates P channel
/// sockets before the restore at degree P); replace it with the stable fd.
Buffer dump_sockets(const proc::Process& p) {
  mig::SocketDeltaTracker tracker;
  BinaryWriter w;
  for (const auto& [fd, file] : p.files().entries()) {
    if (file.kind != proc::FileKind::socket) continue;
    if (file.socket->type() == stack::SocketType::tcp) {
      const auto& tcp = static_cast<const stack::TcpSocket&>(*file.socket);
      mig::TcpImage img = mig::extract_tcp(tcp, fd);
      img.src_sock_key = static_cast<std::uint64_t>(fd);
      tracker.emit_tcp(img, w, /*force_all=*/true);
    } else {
      const auto& udp = static_cast<const stack::UdpSocket&>(*file.socket);
      mig::UdpImage img = mig::extract_udp(udp, fd);
      img.src_sock_key = static_cast<std::uint64_t>(fd);
      tracker.emit_udp(img, w, /*force_all=*/true);
    }
  }
  return w.take();
}

struct DegreeRun {
  mig::MigrationStats stats;
  Buffer image;
  Buffer sockets;
};

/// Two nodes with 4-rail cluster links, a zone server on node 0 and one idle
/// client. The workload is deliberately static (a zone tick that never fires,
/// an idle client): every state difference at a fixed sample instant is caused
/// by the data path itself.
struct StaticZone {
  dve::Testbed bed{config()};
  Pid pid{};
  std::optional<dve::TcpDveClient> client;

  StaticZone() {
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.tick = SimTime::seconds(100);  // never fires within the run
    zs.use_db = false;
    zs.heap_bytes = 1ull << 20;
    zs.code_bytes = 128ull << 10;
    zs.libs_bytes = 128ull << 10;
    zs.stack_bytes = 32ull << 10;
    pid = dve::ZoneServerApp::launch(bed.node(0).node, zs)->pid();
    client.emplace(bed.make_client_host(), bed.public_ip());
    client->connect_to_zone(1);
    bed.run_for(SimTime::milliseconds(200));
  }

  static dve::TestbedConfig config() {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    cfg.start_conductors = false;
    cfg.cluster_link.rails = 4;
    return cfg;
  }

  /// No migration state left on either daemon: no source session, no
  /// destination connection (primary or stripe), no armed capture session.
  void expect_quiescent() {
    for (std::size_t i = 0; i < 2; ++i) {
      mig::Migd& migd = bed.node(i).migd;
      EXPECT_EQ(migd.src_phase(), -1) << "node " << i;
      EXPECT_EQ(migd.dest_session_count(), 0u) << "node " << i;
      EXPECT_EQ(migd.capture().active_sessions(), 0u) << "node " << i;
    }
  }
};

/// One migration at `degree`, sampled at the same absolute sim time for every
/// degree.
DegreeRun run_degree(int degree, bool live) {
  StaticZone z;
  // Restore-time jiffies adjustment depends on when the restore runs — which
  // is exactly what varies across degrees. Disable it so the images compare.
  z.bed.node(1).migd.set_adjust_timestamps(false);

  DegreeRun out;
  // Runs to the 2 s mark: StaticZone starts the move at 200 ms.
  const auto stats = dve::migrate_and_wait(
      z.bed, z.pid, 0, 1, {.live = live, .config = {.parallelism = degree}},
      SimTime::milliseconds(1800));
  EXPECT_TRUE(stats.has_value()) << "degree " << degree;
  if (stats) out.stats = *stats;
  EXPECT_TRUE(out.stats.success) << "degree " << degree;
  EXPECT_EQ(out.stats.parallelism, degree);

  auto moved = z.bed.node(1).node.find(z.pid);
  EXPECT_NE(moved, nullptr);
  if (moved != nullptr) {
    out.image = normalized_image(*moved);
    out.sockets = dump_sockets(*moved);
  }
  return out;
}

std::string first_diff(const Buffer& a, const Buffer& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return "first diff at offset " + std::to_string(i) + ": " +
             std::to_string(a[i]) + " vs " + std::to_string(b[i]) +
             " (sizes " + std::to_string(a.size()) + "/" +
             std::to_string(b.size()) + ")";
    }
  }
  return "sizes " + std::to_string(a.size()) + "/" + std::to_string(b.size());
}

void expect_equivalent(const DegreeRun& base, const DegreeRun& other,
                       int degree) {
  EXPECT_EQ(base.image, other.image)
      << "process image diverged at degree " << degree << ": "
      << first_diff(base.image, other.image);
  EXPECT_EQ(base.sockets, other.sockets)
      << "socket image diverged at degree " << degree;
  EXPECT_EQ(base.stats.precopy_rounds, other.stats.precopy_rounds);
  EXPECT_EQ(base.stats.precopy_channel_bytes, other.stats.precopy_channel_bytes);
  EXPECT_EQ(base.stats.precopy_socket_bytes, other.stats.precopy_socket_bytes);
  EXPECT_EQ(base.stats.freeze_channel_bytes, other.stats.freeze_channel_bytes);
  EXPECT_EQ(base.stats.freeze_socket_bytes, other.stats.freeze_socket_bytes);
  EXPECT_EQ(base.stats.socket_count, other.stats.socket_count);
}

TEST(ParallelEquivalence, StopAndCopyImagesAreDegreeInvariant) {
  const DegreeRun d1 = run_degree(1, /*live=*/false);
  ASSERT_FALSE(d1.image.empty());
  for (const int degree : {2, 8}) {
    const DegreeRun dn = run_degree(degree, /*live=*/false);
    expect_equivalent(d1, dn, degree);
  }
}

TEST(ParallelEquivalence, LivePrecopyImagesAreDegreeInvariant) {
  const DegreeRun d1 = run_degree(1, /*live=*/true);
  ASSERT_FALSE(d1.image.empty());
  EXPECT_GT(d1.stats.precopy_rounds, 1);
  for (const int degree : {2, 8}) {
    const DegreeRun dn = run_degree(degree, /*live=*/true);
    expect_equivalent(d1, dn, degree);
  }
}

// ============================================================ wire-level tap

struct StripeCounter : FrameChannel::Observer {
  int hellos_out{0};
  std::uint64_t segs_out{0};
  // Bytes the source's primary channel (the one that sent mig_begin) put on
  // the wire before resume_done: payload + 5 framing bytes per frame.
  const FrameChannel* primary{nullptr};
  bool resumed{false};
  std::uint64_t primary_bytes_out{0};
  void on_channel_frame(const FrameChannel& ch, bool outbound, MsgType type,
                        std::size_t payload_len) override {
    if (type == MsgType::resume_done) resumed = true;
    if (!outbound) return;
    if (type == MsgType::mig_begin) primary = &ch;
    if (&ch == primary && !resumed) primary_bytes_out += payload_len + 5;
    if (type == MsgType::stripe_hello) hellos_out += 1;
    if (type == MsgType::stripe_seg) segs_out += 1;
  }
};

TEST(ParallelWire, StripeFramesAppearOnlyAboveDegreeOne) {
  {
    StripeCounter tap;
    FrameChannel::set_observer(&tap);
    const DegreeRun d1 = run_degree(1, /*live=*/true);
    FrameChannel::set_observer(nullptr);
    EXPECT_EQ(tap.hellos_out, 0);
    EXPECT_EQ(tap.segs_out, 0u);
    // At degree 1 the logical byte count is exactly the primary channel's
    // wire bytes, precopy and freeze together.
    EXPECT_GT(tap.primary_bytes_out, 0u);
    EXPECT_EQ(d1.stats.precopy_channel_bytes + d1.stats.freeze_channel_bytes,
              tap.primary_bytes_out);
  }
  {
    StripeCounter tap;
    FrameChannel::set_observer(&tap);
    (void)run_degree(8, /*live=*/true);
    FrameChannel::set_observer(nullptr);
    EXPECT_EQ(tap.hellos_out, 7);  // one per secondary channel
    EXPECT_GT(tap.segs_out, 0u);
  }
}

// ================================================ destination session lifecycle

bool has_attr(const obs::Span& s, const std::string& key) {
  return std::any_of(s.attrs.begin(), s.attrs.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

/// The destination track carries mig.receive with mig.restore nested inside.
void expect_restore_inside_receive(const obs::Tracer& tracer) {
  const obs::Span* receive = tracer.last_completed("mig.receive");
  const obs::Span* restore = tracer.last_completed("mig.restore");
  ASSERT_NE(receive, nullptr);
  ASSERT_NE(restore, nullptr);
  EXPECT_NE(tracer.track_names().at(receive->track).find("/migd.dst"),
            std::string::npos);
  EXPECT_EQ(restore->track, receive->track);
  EXPECT_EQ(restore->depth, receive->depth + 1);
  EXPECT_GE(restore->t_begin_ns, receive->t_begin_ns);
  EXPECT_LE(restore->t_end_ns, receive->t_end_ns);
}

TEST(ParallelLifecycle, StripedMigrationLeavesBothDaemonsQuiescent) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  StaticZone z;
  const auto stats = dve::migrate_and_wait(z.bed, z.pid, 0, 1, {.config = {.parallelism = 4}},
                                           SimTime::milliseconds(1800));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success);
  // The session and all four of its channels are released, whichever
  // of their connections the source closed first.
  z.expect_quiescent();

  expect_restore_inside_receive(tracer);
  const obs::Span* receive = tracer.last_completed("mig.receive");
  ASSERT_NE(receive, nullptr);
  EXPECT_FALSE(has_attr(*receive, "error"));
  EXPECT_EQ(tracer.open_count(), 0u);
  tracer.clear();
}

/// Kills the first stripe channel (one that opened with stripe_hello) to send
/// a stripe_seg: the source daemon "crashes" on that connection mid-transfer.
struct KillFirstStripeSeg : FrameChannel::FaultHook {
  std::vector<const FrameChannel*> stripes;
  int kills{0};

  FrameChannel::FaultAction on_send(const FrameChannel& ch, MsgType type,
                                    std::size_t /*payload_len*/) override {
    if (type == MsgType::stripe_hello) stripes.push_back(&ch);
    if (type != MsgType::stripe_seg || kills > 0 ||
        std::find(stripes.begin(), stripes.end(), &ch) == stripes.end()) {
      return FrameChannel::FaultAction::pass;
    }
    kills += 1;
    return FrameChannel::FaultAction::kill;
  }
};

TEST(ParallelLifecycle, KilledStripeChannelFailsCleanly) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  StaticZone z;
  KillFirstStripeSeg hook;
  FrameChannel::set_fault_hook(&hook);
  const auto stats = dve::migrate_and_wait(z.bed, z.pid, 0, 1, {.config = {.parallelism = 4}},
                                           SimTime::milliseconds(1800));
  FrameChannel::set_fault_hook(nullptr);
  EXPECT_EQ(hook.kills, 1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);

  // The process runs on the source only.
  const auto src = z.bed.node(0).node.find(z.pid);
  ASSERT_NE(src, nullptr);
  EXPECT_FALSE(src->frozen());
  EXPECT_EQ(z.bed.node(1).node.find(z.pid), nullptr);
  z.expect_quiescent();

  // The destination's receive span ends with the failure recorded on it.
  const obs::Span* receive = tracer.last_completed("mig.receive");
  ASSERT_NE(receive, nullptr);
  EXPECT_TRUE(has_attr(*receive, "error"));
  EXPECT_EQ(tracer.open_count(), 0u);
  tracer.clear();
}

// ============================================ destination striping, raw frames
//
// Raw frame clients on node 1 against node 0's migd, as in test_protocol.cpp's
// malformed-frame harness: stripe channels are opened and fed by hand, so the
// destination's parking, ordering and release rules are pinned independently
// of the source's timing.

void put_frame(BinaryWriter& w, MsgType type, std::span<const std::uint8_t> payload) {
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload);
}

constexpr std::uint64_t kRawMigId = 7;

Buffer hello_payload(std::uint8_t index) {
  BinaryWriter w;
  w.u64(kRawMigId);
  w.u8(index);
  return w.take();
}

Buffer begin_payload(dve::Testbed& bed, std::uint8_t stripe_count) {
  mig::MigBegin begin;
  begin.pid = Pid{4242};
  begin.name = "raw";
  begin.strategy = 2;
  begin.src_local = bed.node(1).node.local_addr();
  begin.mig_id = kRawMigId;
  begin.stripe_count = stripe_count;
  BinaryWriter w;
  put(w, begin);
  return w.take();
}

/// One logical frame as a single stripe segment.
Buffer whole_seg(std::uint64_t seq, MsgType inner, const Buffer& payload) {
  return make_seg(seq, inner, static_cast<std::uint32_t>(payload.size()), 0, payload);
}

/// Records, in order, the logical frames node 0's migd receives: the frames
/// its channels deliver plus the ones reassembled from stripe segments.
struct InboundLog : FrameChannel::Observer {
  std::vector<MsgType> types;
  void on_channel_frame(const FrameChannel& /*ch*/, bool outbound, MsgType type,
                        std::size_t /*payload_len*/) override {
    if (!outbound && type != MsgType::stripe_hello && type != MsgType::stripe_seg) {
      types.push_back(type);
    }
  }
};

struct RawStripes {
  dve::Testbed bed{config()};

  static dve::TestbedConfig config() {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    cfg.start_conductors = false;
    return cfg;
  }

  mig::Migd& migd() { return bed.node(0).migd; }

  stack::TcpSocket::Ptr connect() {
    auto s = bed.node(1).node.stack().make_tcp();
    s->bind(bed.node(1).node.local_addr(), 0);
    s->connect(net::Endpoint{bed.node(0).node.local_addr(), mig::kMigdPort});
    bed.run_for(SimTime::milliseconds(50));
    EXPECT_EQ(s->state(), stack::TcpState::established);
    return s;
  }

  void send(stack::TcpSocket& s, MsgType type, const Buffer& payload) {
    BinaryWriter w;
    put_frame(w, type, payload);
    s.send(w.take());
  }

  /// The frame types waiting in `s`'s receive queue.
  static std::vector<MsgType> reply_types(stack::TcpSocket& s) {
    const Buffer bytes = s.read_bytes().copy();
    BinaryReader r(bytes);
    std::vector<MsgType> out;
    while (r.remaining() >= 5) {
      const std::uint32_t len = r.u32();
      out.push_back(static_cast<MsgType>(r.u8()));
      r.skip(len - 1);
    }
    return out;
  }

  void expect_quiescent() {
    EXPECT_EQ(migd().dest_session_count(), 0u);
    EXPECT_EQ(migd().capture().active_sessions(), 0u);
  }
};

// A whole migration whose every logical frame crossed the stripe channel
// before the primary's mig_begin, out of order: the segments are parked,
// then delivered in sequence order once mig_begin arrives, and the process
// is restored.
TEST(DestStriping, SegmentsBeforeMigBeginAreParkedThenDeliveredInOrder) {
  RawStripes t;
  auto primary = t.connect();
  auto stripe = t.connect();
  EXPECT_EQ(t.migd().dest_session_count(), 2u);

  BinaryWriter capture;
  put(capture, mig::CaptureRequest{});
  BinaryWriter sockets;
  sockets.u32(0);
  BinaryWriter delta;
  put(delta, ckpt::MemoryDelta{});
  ckpt::ProcessImage img;
  img.pid = Pid{4242};
  img.name = "raw";
  BinaryWriter image;
  put(image, img);
  const Buffer segs[] = {
      whole_seg(0, MsgType::capture_request, capture.take()),
      whole_seg(1, MsgType::socket_state, sockets.take()),
      whole_seg(2, MsgType::memory_delta, delta.take()),
      whole_seg(3, MsgType::process_image, image.take()),
  };
  InboundLog log;
  FrameChannel::set_observer(&log);
  t.send(*stripe, MsgType::stripe_hello, hello_payload(1));
  for (const std::size_t i : {2u, 0u, 3u, 1u}) t.send(*stripe, MsgType::stripe_seg, segs[i]);
  t.bed.run_for(SimTime::milliseconds(50));
  EXPECT_TRUE(log.types.empty());  // parked: nothing delivered yet
  EXPECT_EQ(t.bed.node(0).node.find(Pid{4242}), nullptr);

  t.send(*primary, MsgType::mig_begin, begin_payload(t.bed, 2));
  t.bed.run_for(SimTime::milliseconds(200));
  FrameChannel::set_observer(nullptr);

  EXPECT_EQ(log.types, (std::vector<MsgType>{MsgType::mig_begin, MsgType::capture_request,
                                             MsgType::socket_state, MsgType::memory_delta,
                                             MsgType::process_image}));
  // capture_enabled waits for the filter-install cost, so the socket_ack of
  // the same replay goes out first.
  EXPECT_EQ(RawStripes::reply_types(*primary),
            (std::vector<MsgType>{MsgType::socket_ack, MsgType::capture_enabled,
                                  MsgType::resume_done}));
  EXPECT_TRUE(RawStripes::reply_types(*stripe).empty());
  EXPECT_NE(t.bed.node(0).node.find(Pid{4242}), nullptr);

  // The source closes its channels after resume_done; nothing is left behind.
  stripe->close();
  primary->close();
  t.bed.run_for(SimTime::milliseconds(100));
  t.expect_quiescent();
}

// Parking is bounded: the 4,097th segment before mig_begin tears the stripe
// down (the destination closes it) instead of buffering without limit.
TEST(DestStriping, ParkedSegmentBacklogTearsTheStripeDown) {
  RawStripes t;
  auto stripe = t.connect();
  const LogLevel saved = Log::level();
  Log::level() = LogLevel::debug;
  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  const auto backlog_lines = [&] {
    return std::count_if(lines.begin(), lines.end(), [](const std::string& l) {
      return l.find("stripe segment backlog before mig_begin") != std::string::npos;
    });
  };

  BinaryWriter w;
  put_frame(w, MsgType::stripe_hello, hello_payload(1));
  for (std::uint64_t seq = 0; seq < 4096; ++seq) {
    put_frame(w, MsgType::stripe_seg, make_seg(seq, MsgType::memory_delta, 0, 0, {}));
  }
  stripe->send(w.take());
  t.bed.run_for(SimTime::milliseconds(100));
  EXPECT_EQ(backlog_lines(), 0);
  EXPECT_EQ(stripe->state(), stack::TcpState::established);
  EXPECT_EQ(t.migd().dest_session_count(), 1u);

  t.send(*stripe, MsgType::stripe_seg, make_seg(4096, MsgType::memory_delta, 0, 0, {}));
  t.bed.run_for(SimTime::milliseconds(100));
  Log::set_sink(nullptr);
  Log::level() = saved;
  EXPECT_EQ(backlog_lines(), 1);
  EXPECT_EQ(stripe->state(), stack::TcpState::close_wait);  // closed by migd
  t.expect_quiescent();
}

// A stripe channel whose migration never begins holds nothing once the source
// closes it.
TEST(DestStriping, StripeWithoutMigBeginIsReleasedWhenTheSourceCloses) {
  RawStripes t;
  auto stripe = t.connect();
  t.send(*stripe, MsgType::stripe_hello, hello_payload(1));
  t.send(*stripe, MsgType::stripe_seg, make_seg(0, MsgType::memory_delta, 0, 0, {}));
  t.bed.run_for(SimTime::milliseconds(50));
  EXPECT_EQ(t.migd().dest_session_count(), 1u);

  stripe->close();
  t.bed.run_for(SimTime::milliseconds(100));
  t.expect_quiescent();
}

// A stripe channel that breaks mid-migration dooms the migration: the
// destination answers mig_abort on the primary and drops the capture session.
TEST(DestStriping, BrokenStripeChannelAbortsTheMigration) {
  RawStripes t;
  auto primary = t.connect();
  auto stripe = t.connect();
  t.send(*primary, MsgType::mig_begin, begin_payload(t.bed, 2));
  t.send(*stripe, MsgType::stripe_hello, hello_payload(1));
  t.bed.run_for(SimTime::milliseconds(50));
  EXPECT_EQ(t.migd().capture().active_sessions(), 1u);

  BinaryWriter garbage;
  garbage.u32(1);
  garbage.u8(0xEE);  // unknown frame type: the stripe channel poisons itself
  stripe->send(garbage.take());
  t.bed.run_for(SimTime::milliseconds(100));
  EXPECT_EQ(RawStripes::reply_types(*primary), std::vector<MsgType>{MsgType::mig_abort});
  EXPECT_EQ(t.migd().capture().active_sessions(), 0u);

  stripe->close();
  primary->close();
  t.bed.run_for(SimTime::milliseconds(100));
  t.expect_quiescent();
}

// ============================================== page fill stays virtual

/// bulk_precopy at its --selftest size: one zone server with an 8 MiB heap
/// and one active client, moved live node 0 -> node 1 at parallelism 4 over
/// 4-rail links.
struct BulkMove {
  dve::Testbed bed{config()};
  Pid pid{};
  std::optional<dve::TcpDveClient> client;

  BulkMove() {
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.active_updates = true;
    zs.heap_bytes = 8ull << 20;
    zs.use_db = false;
    pid = dve::ZoneServerApp::launch(bed.node(0).node, zs)->pid();
    client.emplace(bed.make_client_host(), bed.public_ip());
    client->set_active(SimTime::milliseconds(50), 48);
    client->connect_to_zone(1);
    bed.run_for(SimTime::milliseconds(500));
  }

  static dve::TestbedConfig config() {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    cfg.start_conductors = false;
    cfg.cluster_link.rails = 4;
    cfg.cost_model.initial_loop_timeout_ns = 80'000'000;
    return cfg;
  }
};

// The page payloads cross the serializer, the stripes, TCP, the packets and
// the reassembler as fill runs: not one fill byte is written out. The
// migration itself is the one it was when every page was 4,096 real zero
// bytes (these values were read off that implementation).
TEST(MigrationTest, PageFillStaysVirtual) {
  BulkMove m;
  const std::uint64_t before = net::payload_bytes_materialized();
  const mig::MigrationStats s =
      dve::migrate_and_wait(m.bed, m.pid, 0, 1, {.config = {.parallelism = 4}},
                            SimTime::seconds(2))
          .value_or(mig::MigrationStats{});
  EXPECT_EQ(net::payload_bytes_materialized() - before, 0u);
  ASSERT_TRUE(s.success);
  EXPECT_EQ(s.precopy_rounds, 3);
  EXPECT_EQ(s.precopy_channel_bytes, 8'707'657u);
  EXPECT_EQ(s.precopy_socket_bytes, 6'943u);
  EXPECT_EQ(s.freeze_channel_bytes, 17'736u);
  EXPECT_EQ(s.freeze_socket_bytes, 390u);
  EXPECT_EQ(s.socket_count, 2u);
  EXPECT_EQ((s.t_freeze_begin - s.t_start).ns, 161'385'622);
  EXPECT_EQ((s.t_resume - s.t_start).ns, 162'064'325);
}

// The corruption gate: a byte flipped inside the page fill of one in-flight
// segment makes that packet fail its checksum at the receiver, which drops
// it; TCP retransmits and the migration still completes.
TEST(MigrationTest, FlippedPageFillByteFailsTheChecksum) {
  BulkMove m;
  stack::NetStack& dst = m.bed.node(1).node.stack();
  bool flipped = false;
  stack::HookHandle hook = dst.netfilter().register_hook(
      stack::Hook::local_in, 0, [&](net::Packet& p) {
        const net::Packet& seen = p;
        if (flipped || seen.proto != net::IpProto::tcp || seen.tcp.dport != mig::kMigdPort ||
            seen.payload.size() != stack::kTcpMss) {
          return stack::Verdict::accept;
        }
        // Inside a page payload: the middle of 64 zero bytes.
        for (std::size_t at = 0; at + 64 <= seen.payload.size(); at += 64) {
          bool zeros = true;
          for (std::size_t i = at; i < at + 64 && zeros; ++i) zeros = seen.payload[i] == 0;
          if (!zeros) continue;
          EXPECT_TRUE(net::checksum_ok(seen));
          p.payload[at + 32] ^= 0x10;
          EXPECT_FALSE(net::checksum_ok(seen));
          flipped = true;
          break;
        }
        return stack::Verdict::accept;
      });
  const std::uint64_t bad_before = dst.stats().rx_bad_checksum;
  const mig::MigrationStats s =
      dve::migrate_and_wait(m.bed, m.pid, 0, 1, {.config = {.parallelism = 4}},
                            SimTime::seconds(2))
          .value_or(mig::MigrationStats{});
  hook.release();
  EXPECT_TRUE(flipped);
  EXPECT_EQ(dst.stats().rx_bad_checksum - bad_before, 1u);
  EXPECT_TRUE(s.success);
}

}  // namespace
}  // namespace dvemig
