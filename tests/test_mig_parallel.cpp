// Parallel pipelined data path (PMigrate-style striping) tests:
//  - shard helpers (static work split used by every sharded cost);
//  - StripeReassembler hardening (ordering, overlap, caps, poisoning);
//  - protocol-checker stripe rules;
//  - stripe frames on the wire only at parallelism > 1;
//  - the headline equivalence property: parallelism in {1, 2, 8} produces
//    byte-identical process and socket images on the destination and identical
//    MigrationStats byte counts, for both stop-and-copy and live precopy.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/check/protocol_checker.hpp"
#include "src/ckpt/dirty_tracker.hpp"
#include "src/ckpt/image.hpp"
#include "src/dve/testbed.hpp"
#include "src/dve/zone_server.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/migd.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/socket_image.hpp"

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

/// One migration at `degree`, sampled at the same absolute sim time for every
/// degree. The workload is deliberately static (a zone tick that never fires,
/// an idle client): every state difference at the fixed sample instant would
/// be caused by the data path itself, which must not leak into the image.
DegreeRun run_degree(int degree, bool live) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.with_db = false;
  cfg.start_conductors = false;
  cfg.cluster_link.rails = 4;
  dve::Testbed bed(cfg);
  // Restore-time jiffies adjustment depends on when the restore runs — which
  // is exactly what varies across degrees. Disable it so the images compare.
  bed.node(1).migd.set_adjust_timestamps(false);

  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.tick = SimTime::seconds(100);  // never fires within the run
  zs.use_db = false;
  zs.heap_bytes = 1ull << 20;
  zs.code_bytes = 128ull << 10;
  zs.libs_bytes = 128ull << 10;
  zs.stack_bytes = 32ull << 10;
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  const Pid pid = proc->pid();

  dve::TcpDveClient client(bed.make_client_host(), bed.public_ip());
  client.connect_to_zone(1);
  bed.run_for(SimTime::milliseconds(200));

  mig::MigrateOptions opts;
  opts.strategy = mig::SocketMigStrategy::incremental_collective;
  opts.live = live;
  opts.config.parallelism = degree;

  DegreeRun out;
  bool done = false;
  EXPECT_TRUE(bed.node(0).migd.migrate(
      pid, bed.node(1).node.local_addr(), opts,
      [&](const mig::MigrationStats& s) {
        out.stats = s;
        done = true;
      }));
  bed.run_until(SimTime::seconds(2));
  EXPECT_TRUE(done) << "degree " << degree;
  EXPECT_TRUE(out.stats.success) << "degree " << degree;
  EXPECT_EQ(out.stats.parallelism, degree);

  auto moved = bed.node(1).node.find(pid);
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

}  // namespace
}  // namespace dvemig
