// Golden wire bytes: the (size, FNV-1a) of every wire record's encoding for
// fixed, non-trivial inputs, pinned from the hand-written writer/reader pairs
// the field lists replaced. The round-trip tests elsewhere pass for any format
// change made on both the write and the read side; these do not. Each record
// must also decode and re-encode to the very same bytes, and `size_of` (the
// length migd reserves before it encodes a record) must count exactly them.
// WireSplit then reads the same records, and hostile variants of them, from
// chunks split at random points with their fill as runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>

#include "src/ckpt/dirty_tracker.hpp"
#include "src/ckpt/image.hpp"
#include "src/dve/game_server.hpp"
#include "src/dve/zone_server.hpp"
#include "src/lb/load_info.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/socket_image.hpp"
#include "src/mig/translation.hpp"

namespace dvemig {
namespace {

using mig::CaptureSpec;
using mig::TcpImage;
using mig::UdpImage;

struct Golden {
  std::size_t size;
  std::uint64_t fnv;
};

template <class Encode>
Buffer encode(const Encode& fn) {
  BinaryWriter w;
  fn(w);
  return w.take();
}

/// Each section of a socket image, encoded on its own, in wire order.
template <class Image>
std::vector<Buffer> encode_sections(const Image& img) {
  std::vector<Buffer> out;
  Image::sections([&](mig::SectionFlags, const auto& fields) {
    BinaryWriter w;
    Put io(w);
    fields(io, img);
    out.push_back(w.take());
  });
  return out;
}

/// The image encode_sections came from; every section must be read exactly.
template <class Image>
Image decode_sections(const std::vector<Buffer>& sections) {
  Image img;
  std::size_t i = 0;
  Image::sections([&](mig::SectionFlags, const auto& fields) {
    BinaryReader r(sections.at(i++));
    Get io(r);
    fields(io, img);
    EXPECT_TRUE(r.at_end());
  });
  return img;
}

/// What Size counts for each section of a socket image, in wire order.
template <class Image>
std::vector<std::size_t> section_sizes(const Image& img) {
  std::vector<std::size_t> out;
  Image::sections([&](mig::SectionFlags, const auto& fields) {
    Size io;
    fields(io, img);
    out.push_back(io.bytes());
  });
  return out;
}

void expect_golden(const Buffer& bytes, Golden g) {
  EXPECT_EQ(bytes.size(), g.size);
  EXPECT_EQ(fnv1a(bytes), g.fnv) << std::hex << "0x" << fnv1a(bytes);
}

Buffer blob(std::size_t n, std::uint8_t seed) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

net::Endpoint ep(std::uint8_t last, net::Port port) {
  return net::Endpoint{net::Ipv4Addr::octets(10, 1, 2, last), port};
}

// ---------------------------------------------------------------- inputs

TcpImage sample_tcp(std::uint64_t key, Fd fd, bool listening) {
  TcpImage img;
  img.src_sock_key = key;
  img.fd = fd;
  img.local = ep(1, 8000);
  img.remote = listening ? net::Endpoint{} : ep(9, static_cast<net::Port>(40000 + key));
  img.listening = listening;
  img.backlog_limit = listening ? 512 : 0;
  img.iss = 0x11223344;
  img.irs = 0x55667788;
  img.rcv_wnd_max = 65535;
  img.state = listening ? stack::TcpState::time_wait : stack::TcpState::listen;
  img.snd_una = 0x11223400;
  img.snd_nxt = 0x11223500;
  img.snd_wnd = 32768;
  img.rcv_nxt = 0x55667800;
  img.srtt_ns = 1'250'000;
  img.rttvar_ns = -3;
  img.rto_ns = 200'000'000;
  img.cwnd = 14600;
  img.ssthresh = 0xFFFFFFFF;
  img.ts_recent = 987654;
  img.ts_offset = -123456789;
  img.fin_queued = true;
  img.fin_seq = 0x11223501;
  img.peer_fin_seen = false;
  img.write_queue.push_back(
      stack::TcpTxSegment{0x11223400, 0x18, blob(100, 1), 2, 5'000'000, 4242});
  img.write_queue.push_back(stack::TcpTxSegment{0x11223464, 0x10, {}, 0, -1, 0});
  img.receive_queue.push_back(stack::TcpRxSegment{0x55667700, blob(37, 2), false});
  img.ooo_queue.push_back(stack::TcpRxSegment{0x55667900, blob(5, 3), true});
  img.ooo_queue.push_back(stack::TcpRxSegment{0x55667a00, blob(0, 4), false});
  if (listening) {
    img.accept_children.push_back(sample_tcp(key + 1, -1, false));
  }
  return img;
}

UdpImage sample_udp() {
  UdpImage img;
  img.src_sock_key = 77;
  img.fd = 5;
  img.local = ep(1, 27960);
  img.remote = ep(3, 5000);
  img.bound = true;
  img.connected = true;
  img.receive_queue.push_back(stack::UdpDatagram{ep(4, 1234), blob(64, 5)});
  img.receive_queue.push_back(stack::UdpDatagram{ep(5, 4321), blob(1, 6)});
  return img;
}

proc::VmArea area(std::uint64_t start, const char* name) {
  return proc::VmArea{start, 0x3000, 3, start % 2 == 0, name};
}

ckpt::ProcessImage sample_process() {
  ckpt::ProcessImage img;
  img.pid = Pid{1001};
  img.name = "zone_7";
  img.areas = {area(0x400000, "zone_server"), area(0x7f0000001000, "[heap]")};
  for (std::uint32_t t = 0; t < 2; ++t) {
    proc::ThreadContext th;
    th.tid = 1001 + t;
    for (std::size_t i = 0; i < th.gp_regs.size(); ++i) th.gp_regs[i] = t * 100 + i;
    th.pc = 0x401000 + t;
    th.sp = 0x7ffff000 - t;
    th.signal_mask = 0x5 << t;
    img.threads.push_back(th);
  }
  img.signal_handlers = {{2, 0x402000}, {15, 0x402100}};
  img.regular_files.push_back(ckpt::FileImage{3, "/var/log/zone_7.log", 4096, 0x401});
  img.socket_fds = {4, 6, 9};
  img.app_kind = "zone_server";
  img.app_blob = blob(23, 7);
  img.src_jiffies = 123456;
  img.src_local_now_ns = 9'876'543'210;
  return img;
}

ckpt::MemoryDelta sample_delta() {
  ckpt::MemoryDelta d;
  d.added_areas = {area(0x10000, "[anon]")};
  d.removed_areas = {0x20000, 0x30000};
  d.modified_areas = {area(0x40001, "[heap]")};
  d.dirty_pages = {16, 17, 99};
  return d;
}

lb::LoadInfo sample_load() {
  lb::LoadInfo info;
  info.node_local = net::Ipv4Addr::octets(10, 1, 0, 3);
  info.node_key = 3;
  info.utilization = 0.625;
  info.demand = 1.375;
  info.capacity_cores = 4.0;
  info.process_count = 21;
  info.sent_at_ns = 12'000'000'007;
  return info;
}

Buffer mig_begin_bytes() {
  const mig::MigBegin m{.pid = Pid{4242},
                        .name = "zone_x",
                        .strategy = 2,
                        .src_local = net::Ipv4Addr::octets(10, 1, 0, 1),
                        .mig_id = 0x0A01000100007ULL,
                        .stripe_count = 4};
  return encode([&](BinaryWriter& w) { put(w, m); });
}

// The apps keep their state private, so their inputs are given as the byte
// streams a checkpoint carries, field by field.
Buffer zone_server_bytes() {
  BinaryWriter w;
  w.u32(7);                // zone
  w.i64(50'000'000);       // tick
  w.u32(256);              // update_bytes
  w.f64(0.008);            // base_cores
  w.f64(0.0007);           // per_client_cores
  w.u32(2);                // worker_threads
  w.u8(1);                 // active_updates
  w.u64(4);                // pages_per_tick
  w.u8(1);                 // use_db
  w.u32(0x0A010063);       // db_addr
  w.i64(1'000'000'000);    // db_update_period
  w.u32(160);              // db_query_bytes
  w.i32(3);                // listener_fd
  w.i32(4);                // db_fd
  w.u32(3);                // client_fds
  for (const Fd fd : {5, 8, 11}) w.i32(fd);
  w.u32(99);               // update_seq
  w.u64(1000);             // updates_sent
  w.u64(20);               // db_queries_sent
  w.u64(19);               // db_responses
  w.u64(400);              // ticks
  w.blob(blob(12, 8));     // db_rx
  w.i64(20'050'000'000);   // next_tick_at_ns
  w.i64(21'000'000'000);   // next_db_at_ns
  return w.take();
}

Buffer game_server_bytes() {
  BinaryWriter w;
  w.u16(27960);            // port
  w.i64(50'000'000);       // tick
  w.u32(256);              // snapshot_bytes
  w.f64(0.05);             // base_cores
  w.f64(0.01);             // per_client_cores
  w.u64(700);              // pages_per_tick
  w.i64(5'000'000'000);    // client_timeout
  w.i32(3);                // sock_fd
  w.u32(2);                // clients
  w.u32(0x0A020001);
  w.u16(5000);
  w.i64(7'000'000'000);
  w.u32(0x0A020002);
  w.u16(5001);
  w.i64(7'050'000'000);
  w.u32(140);              // snapshot_seq
  w.u64(280);              // snapshots_sent
  w.i64(7'100'000'000);    // next_tick_at_ns
  return w.take();
}

// ---------------------------------------------------------------- records

TEST(WireGolden, CaptureSpec) {
  const CaptureSpec spec{net::IpProto::udp, true, ep(9, 40001), 27960};
  const Buffer bytes = encode([&](BinaryWriter& w) { spec.serialize(w); });
  expect_golden(bytes, {10, 0xd54515f323eece1dULL});
  EXPECT_EQ(size_of(spec), bytes.size());
  BinaryReader r(bytes);
  const CaptureSpec back = CaptureSpec::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encode([&](BinaryWriter& w) { back.serialize(w); }), bytes);
}

TEST(WireGolden, TranslationRule) {
  const mig::TranslationRule rule{net::IpProto::tcp, ep(20, 3306), ep(1, 41000),
                                  net::Ipv4Addr::octets(10, 1, 0, 2)};
  const Buffer bytes = encode([&](BinaryWriter& w) { put(w, rule); });
  expect_golden(bytes, {17, 0x5385c5ee24a65903ULL});
  EXPECT_EQ(size_of(rule), bytes.size());
  BinaryReader r(bytes);
  const auto back = get<mig::TranslationRule>(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encode([&](BinaryWriter& w) { put(w, back); }), bytes);
}

// The migd <-> transd datagrams.
TEST(WireGolden, TransdRequestAndAck) {
  const mig::TransdRequest req{
      0x0102030405060708ULL,
      mig::TranslationRule{net::IpProto::tcp, ep(20, 3306), ep(1, 41000),
                           net::Ipv4Addr::octets(10, 1, 0, 2)}};
  const Buffer bytes = encode([&](BinaryWriter& w) { put(w, req); });
  expect_golden(bytes, {25, 0x5df6091cd49d21f3ULL});
  EXPECT_EQ(size_of(req), bytes.size());
  BinaryReader r(bytes);
  mig::TransdRequest back;
  ASSERT_TRUE(get_payload(r, back));
  EXPECT_EQ(encode([&](BinaryWriter& w) { put(w, back); }), bytes);

  const Buffer ack = encode([&](BinaryWriter& w) { put(w, mig::TransdAck{req.req_id}); });
  expect_golden(ack, {8, 0x0c6d4496e17859d5ULL});
  BinaryReader ar(ack);
  mig::TransdAck ack_back;
  ASSERT_TRUE(get_payload(ar, ack_back));
  EXPECT_EQ(ack_back.req_id, req.req_id);
}

// A conductor control datagram: the type byte (2 = mig_offer, 4 = mig_reject),
// then a CtrlMsg.
TEST(WireGolden, ConductorCtrl) {
  const std::pair<std::uint8_t, lb::CtrlMsg> msgs[] = {
      {2, lb::CtrlMsg{0x1122334455667788ULL, 0.375}}, {4, lb::CtrlMsg{42, 0}}};
  const Golden golden[] = {{17, 0xbb998d9a2eb4bad0ULL}, {17, 0xcc5478d0f3b85779ULL}};
  for (std::size_t i = 0; i < std::size(msgs); ++i) {
    const auto& [type, msg] = msgs[i];
    const Buffer bytes = encode([&](BinaryWriter& w) {
      w.u8(type);
      put(w, msg);
    });
    expect_golden(bytes, golden[i]);
    EXPECT_EQ(1 + size_of(msg), bytes.size());
    BinaryReader r(bytes);
    EXPECT_EQ(r.u8(), type);
    lb::CtrlMsg back;
    ASSERT_TRUE(get_payload(r, back));
    EXPECT_EQ(back.offer_id, msg.offer_id);
    EXPECT_EQ(back.value, msg.value);
  }
}

TEST(WireGolden, TcpSections) {
  const TcpImage img = sample_tcp(40, 3, /*listening=*/true);
  const std::vector<Buffer> sections = encode_sections(img);
  ASSERT_EQ(sections.size(), 3u);  // static, dynamic, queues
  expect_golden(sections[0], {7348, 0xd79d130980860becULL});
  expect_golden(sections[1], {67, 0xac96321ae6723b69ULL});
  expect_golden(sections[2], {1431, 0x23c9b9316696a1e2ULL});
  EXPECT_EQ(section_sizes(img), (std::vector<std::size_t>{7348, 67, 1431}));

  const TcpImage back = decode_sections<TcpImage>(sections);
  ASSERT_EQ(back.accept_children.size(), 1u);
  EXPECT_EQ(encode_sections(back), sections);
}

TEST(WireGolden, UdpSections) {
  const UdpImage img = sample_udp();
  const std::vector<Buffer> sections = encode_sections(img);
  ASSERT_EQ(sections.size(), 2u);  // static, queues
  expect_golden(sections[0], {786, 0x203fe7d17ea8d967ULL});
  expect_golden(sections[1], {569, 0xb750d61e3bde6122ULL});
  EXPECT_EQ(section_sizes(img), (std::vector<std::size_t>{786, 569}));

  const UdpImage back = decode_sections<UdpImage>(sections);
  EXPECT_EQ(encode_sections(back), sections);
}

// The socket_state record: proto, key, section flags, then the sections.
TEST(WireGolden, SocketRecords) {
  const TcpImage tcp = sample_tcp(40, 3, /*listening=*/true);
  const UdpImage udp = sample_udp();
  mig::SocketDeltaTracker tracker;
  BinaryWriter w;
  EXPECT_EQ(tracker.emit_tcp(tcp, w, /*force_all=*/true), mig::kAllSections<TcpImage>);
  tracker.emit_udp(udp, w, /*force_all=*/true);
  const Buffer bytes = w.take();
  expect_golden(bytes, {10221, 0x9fab8f052ee9c5ecULL});
  // Each record is a 10-byte header (proto, key, flags), then its sections.
  std::size_t sized = 2 * 10;
  for (const std::size_t n : section_sizes(tcp)) sized += n;
  for (const std::size_t n : section_sizes(udp)) sized += n;
  EXPECT_EQ(sized, bytes.size());

  mig::SocketStaging staging;
  BinaryReader r(bytes);
  while (!r.at_end()) mig::read_socket_record(r, staging);
  ASSERT_EQ(staging.size(), 2u);
  ASSERT_TRUE(staging.at(tcp.src_sock_key).complete());
  ASSERT_TRUE(staging.at(udp.src_sock_key).complete());
  mig::SocketDeltaTracker fresh;
  BinaryWriter again;
  fresh.emit_tcp(staging.at(tcp.src_sock_key).tcp, again, /*force_all=*/true);
  fresh.emit_udp(staging.at(udp.src_sock_key).udp, again, /*force_all=*/true);
  EXPECT_EQ(again.take(), bytes);
}

TEST(WireGolden, ProcessImage) {
  const ckpt::ProcessImage img = sample_process();
  const Buffer bytes = encode([&](BinaryWriter& w) { img.serialize(w); });
  expect_golden(bytes, {546, 0x95dd462e09917267ULL});
  EXPECT_EQ(size_of(img), bytes.size());
  BinaryReader r(bytes);
  const ckpt::ProcessImage back = ckpt::ProcessImage::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encode([&](BinaryWriter& w) { back.serialize(w); }), bytes);
}

TEST(WireGolden, MemoryDelta) {
  const ckpt::MemoryDelta d = sample_delta();
  const Buffer bytes = encode([&](BinaryWriter& w) { d.serialize(w); });
  expect_golden(bytes, {12406, 0xdd78e3adecb4409eULL});
  EXPECT_EQ(size_of(d), bytes.size());
  BinaryReader r(bytes);
  const ckpt::MemoryDelta back = ckpt::MemoryDelta::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encode([&](BinaryWriter& w) { back.serialize(w); }), bytes);
}

TEST(WireGolden, LoadInfo) {
  const lb::LoadInfo info = sample_load();
  const Buffer bytes = encode([&](BinaryWriter& w) { info.serialize(w); });
  expect_golden(bytes, {44, 0x2f29d11aa0ff89d4ULL});
  EXPECT_EQ(size_of(info), bytes.size());
  BinaryReader r(bytes);
  const auto back = get<lb::LoadInfo>(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(encode([&](BinaryWriter& w) { back.serialize(w); }), bytes);
}

TEST(WireGolden, MigBegin) {
  const Buffer bytes = mig_begin_bytes();
  expect_golden(bytes, {28, 0x1876d5658c4a9a05ULL});
  BinaryReader r(bytes);
  mig::MigBegin back;
  ASSERT_TRUE(get_payload(r, back));
  EXPECT_EQ(size_of(back), bytes.size());
  EXPECT_EQ(encode([&](BinaryWriter& w) { put(w, back); }), bytes);
}

TEST(WireGolden, AppStates) {
  dve::ZoneServerApp::register_kind();
  dve::GameServerApp::register_kind();
  const std::pair<const char*, Buffer> apps[] = {
      {dve::ZoneServerApp::kKind, zone_server_bytes()},
      {dve::GameServerApp::kKind, game_server_bytes()},
  };
  const Golden golden[] = {{154, 0xa4a5c58565bd4dfbULL},
                           {102, 0xdb5046b07e8735f2ULL}};
  for (std::size_t i = 0; i < std::size(apps); ++i) {
    const auto& [kind, bytes] = apps[i];
    SCOPED_TRACE(kind);
    expect_golden(bytes, golden[i]);
    BinaryReader r(bytes);
    const auto app = proc::AppLogic::create(kind, r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(encode([&](BinaryWriter& w) { app->serialize(w); }), bytes);
  }
}

TEST(WireGolden, StripeHello) {
  const mig::StripeHello hello{.mig_id = 0x0A01000100007ULL, .index = 3};
  const Buffer bytes = encode([&](BinaryWriter& w) { put(w, hello); });
  expect_golden(bytes, {9, 0x085b1b0a56214c93ULL});
  EXPECT_EQ(size_of(hello), bytes.size());
  BinaryReader r(bytes);
  mig::StripeHello back;
  ASSERT_TRUE(get_payload(r, back));
  EXPECT_EQ(encode([&](BinaryWriter& w) { put(w, back); }), bytes);
}

// A stripe_seg payload: the 17-byte header, then the chunk's bytes.
TEST(WireGolden, StripeSegment) {
  const mig::StripeSegHeader header{
      .seq = 0x1122334455ULL,
      .inner_type = static_cast<std::uint8_t>(mig::MsgType::socket_state),
      .total = 1000,
      .offset = 512};
  const Buffer chunk = blob(200, 9);
  const Buffer bytes = encode([&](BinaryWriter& w) {
    put(w, header);
    w.bytes(chunk);
  });
  expect_golden(bytes, {217, 0xbd0d0105c70bd448ULL});
  EXPECT_EQ(size_of(header) + chunk.size(), bytes.size());
  BinaryReader r(bytes);
  const auto back = get<mig::StripeSegHeader>(r);
  EXPECT_EQ(r.remaining(), chunk.size());
  EXPECT_EQ(encode([&](BinaryWriter& w) { put(w, back); }),
            Buffer(bytes.begin(), bytes.begin() + 17));
}

// ------------------------------------------------- split chunks, hostile input

/// A record's encoding as its writer left it (fill as runs) and a decoder
/// that returns the decoded record re-encoded flat, or nullopt on rejection.
struct WireCase {
  std::string name;
  Bytes bytes;
  std::function<std::optional<Buffer>(BinaryReader&)> decode;
  bool checked{true};  // the decoder rejects bad input instead of aborting
};

template <class Encode>
Bytes encode_runs(const Encode& fn) {
  BinaryWriter w;
  fn(w);
  return w.take_bytes();
}

template <class R>
WireCase payload_case(std::string name, const R& rec) {
  return {std::move(name), encode_runs([&](BinaryWriter& w) { put(w, rec); }),
          [](BinaryReader& r) -> std::optional<Buffer> {
            R back;
            if (!get_payload(r, back)) return std::nullopt;
            return encode([&](BinaryWriter& w) { put(w, back); });
          }};
}

/// Section `k` of an Image, alone: decoded checked, then re-encoded.
template <class Image>
WireCase section_case(std::string name, const Image& img, std::size_t k) {
  const auto run_section = [k](auto& io, auto& image) {
    std::size_t i = 0;
    Image::sections([&](mig::SectionFlags, const auto& fields) {
      if (i++ == k) fields(io, image);
    });
  };
  return {std::move(name), encode_runs([&](BinaryWriter& w) {
            Put io(w);
            run_section(io, img);
          }),
          [run_section](BinaryReader& r) -> std::optional<Buffer> {
            Image back;
            Get io = Get::checked(r);
            run_section(io, back);
            if (!io.ok() || !r.at_end()) return std::nullopt;
            return encode([&](BinaryWriter& w) {
              Put pio(w);
              run_section(pio, back);
            });
          }};
}

/// Socket records as the destination reads them: optionally behind a u32
/// record count (a socket_state frame), then records to the end. The staging
/// they leave is re-encoded in key order.
std::optional<Buffer> decode_socket_records(BinaryReader& r, bool counted) {
  std::uint32_t n = 0;
  if (counted) {
    Get io = Get::checked(r);
    io.u32(n);
    if (!io.ok()) return std::nullopt;
  }
  mig::SocketStaging staging;
  std::uint32_t records = 0;
  bool ok = true;
  for (; ok && !r.at_end(); ++records) ok = mig::read_socket_record(r, staging);
  if (!ok || (counted && records != n)) return std::nullopt;
  std::vector<std::uint64_t> keys;
  for (const auto& [key, staged] : staging) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  mig::SocketDeltaTracker tracker;
  BinaryWriter w;
  for (const std::uint64_t key : keys) {
    const mig::StagedSocket& staged = staging.at(key);
    w.u8(static_cast<std::uint8_t>(staged.have));
    if (staged.proto == net::IpProto::tcp) {
      tracker.emit_tcp(staged.tcp, w, /*force_all=*/true);
    } else {
      tracker.emit_udp(staged.udp, w, /*force_all=*/true);
    }
  }
  return w.take();
}

/// A memory_delta frame as the source's dirty tracker produces it: the
/// first round over a small address space ships every page.
ckpt::MemoryDelta recorded_delta() {
  proc::AddressSpace mem;
  mem.mmap(16 * proc::kPageSize, proc::prot_read | proc::prot_write, "[heap]");
  mem.mmap(4 * proc::kPageSize, proc::prot_read, "libc.so");
  ckpt::DirtyTracker tracker;
  return tracker.round(mem);
}

std::vector<WireCase> wire_cases() {
  std::vector<WireCase> cases;
  cases.push_back(payload_case("CaptureSpec",
                               CaptureSpec{net::IpProto::udp, true, ep(9, 40001), 27960}));
  cases.push_back(payload_case(
      "TranslationRule", mig::TranslationRule{net::IpProto::tcp, ep(20, 3306), ep(1, 41000),
                                              net::Ipv4Addr::octets(10, 1, 0, 2)}));
  const TcpImage tcp = sample_tcp(40, 3, /*listening=*/true);
  const UdpImage udp = sample_udp();
  for (std::size_t k = 0; k < 3; ++k) {
    cases.push_back(section_case("TcpSection" + std::to_string(k), tcp, k));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    cases.push_back(section_case("UdpSection" + std::to_string(k), udp, k));
  }
  const auto emit_both = [&](BinaryWriter& w) {
    mig::SocketDeltaTracker tracker;
    tracker.emit_tcp(tcp, w, /*force_all=*/true);
    tracker.emit_udp(udp, w, /*force_all=*/true);
  };
  cases.push_back({"SocketRecords", encode_runs(emit_both),
                   [](BinaryReader& r) { return decode_socket_records(r, false); }});
  cases.push_back({"socket_state frame", encode_runs([&](BinaryWriter& w) {
                     w.u32(2);
                     emit_both(w);
                   }),
                   [](BinaryReader& r) { return decode_socket_records(r, true); }});
  cases.push_back(payload_case("ProcessImage", sample_process()));
  cases.push_back(payload_case("MemoryDelta", sample_delta()));
  cases.push_back(payload_case("memory_delta frame", recorded_delta()));
  cases.push_back(payload_case("LoadInfo", sample_load()));
  cases.push_back({"MigBegin", Bytes(mig_begin_bytes()),
                   [](BinaryReader& r) -> std::optional<Buffer> {
                     mig::MigBegin back;
                     if (!get_payload(r, back)) return std::nullopt;
                     return encode([&](BinaryWriter& w) { put(w, back); });
                   }});
  cases.push_back(payload_case("StripeHello", mig::StripeHello{.mig_id = 0x0A01000100007ULL,
                                                              .index = 3}));
  cases.push_back({"StripeSegment", encode_runs([](BinaryWriter& w) {
                     put(w, mig::StripeSegHeader{.seq = 0x1122334455ULL,
                                                 .inner_type = 5,
                                                 .total = 1000,
                                                 .offset = 512});
                     w.bytes(blob(200, 9));
                     w.fill(300, 0);
                   }),
                   [](BinaryReader& r) -> std::optional<Buffer> {
                     mig::StripeSegHeader h;
                     Get io = Get::checked(r);
                     io.rec(h);
                     if (!io.ok()) return std::nullopt;
                     BinaryWriter w;
                     put(w, h);
                     w.append(r.bytes(r.remaining()));
                     return w.take();
                   }});
  // The apps' readers are strict (a checkpoint that underflows is corrupt):
  // they take split input, not hostile input.
  for (const auto& [kind, bytes] : {std::pair{dve::ZoneServerApp::kKind, zone_server_bytes()},
                                    std::pair{dve::GameServerApp::kKind, game_server_bytes()}}) {
    cases.push_back({kind, Bytes(bytes),
                     [kind = std::string(kind)](BinaryReader& r) -> std::optional<Buffer> {
                       const auto app = proc::AppLogic::create(kind, r);
                       if (!r.at_end()) return std::nullopt;
                       return encode([&](BinaryWriter& w) { app->serialize(w); });
                     },
                     /*checked=*/false});
  }
  return cases;
}

Buffer flatten(const Bytes& b) {
  Buffer out;
  b.for_each_chunk(
      [&](std::span<const std::uint8_t> real) { out.insert(out.end(), real.begin(), real.end()); },
      [&](std::size_t n, std::uint8_t fill) { out.insert(out.end(), n, fill); });
  return out;
}

/// `flat` cut at random points, mostly a few bytes apart so that integer
/// fields straddle chunks; a piece of one repeated byte becomes a run, any
/// other piece a block of its own.
Bytes split(const Buffer& flat, std::mt19937_64& rng) {
  Bytes out;
  std::size_t at = 0;
  while (at < flat.size()) {
    const std::size_t most = rng() % 4 == 0 ? 5000 : 13;
    const std::size_t n = std::min<std::size_t>(flat.size() - at, 1 + rng() % most);
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(at);
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    if (n > 1 && std::all_of(first, last, [&](std::uint8_t v) { return v == *first; })) {
      out.append_run(n, *first);
    } else {
      out.append(Bytes(Buffer(first, last)));
    }
    at += n;
  }
  return out;
}

std::optional<Buffer> decode_flat(const WireCase& c, const Buffer& flat) {
  BinaryReader r(flat);
  return c.decode(r);
}

std::optional<Buffer> decode_split(const WireCase& c, const Bytes& bytes) {
  BinaryReader r(bytes);
  return c.decode(r);
}

TEST(WireSplit, AnySplitDecodesLikeFlat) {
  dve::ZoneServerApp::register_kind();
  dve::GameServerApp::register_kind();
  const std::vector<WireCase> cases = wire_cases();
  std::mt19937_64 rng(1071);

  // Every record as written (runs and all) and at random splits.
  for (const WireCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Buffer flat = flatten(c.bytes);
    const auto want = decode_flat(c, flat);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(decode_split(c, c.bytes), want);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(decode_split(c, split(flat, rng)), want);
  }

  // 1,000 byte-flipped or truncated variants, each decoded from flat bytes
  // and from two random splits: the same record or the same rejection.
  std::vector<const WireCase*> hostile;
  for (const WireCase& c : cases) {
    if (c.checked) hostile.push_back(&c);
  }
  int rejected = 0;
  for (int v = 0; v < 1'000; ++v) {
    const WireCase& c = *hostile[rng() % hostile.size()];
    Buffer flat = flatten(c.bytes);
    if (rng() % 3 == 0) {
      flat.resize(rng() % flat.size());
    } else {
      for (std::uint64_t k = 1 + rng() % 3; k > 0; --k) {
        flat[rng() % flat.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
    }
    SCOPED_TRACE(c.name + " variant " + std::to_string(v));
    const auto want = decode_flat(c, flat);
    rejected += want ? 0 : 1;
    for (int i = 0; i < 2; ++i) ASSERT_EQ(decode_split(c, split(flat, rng)), want);
  }
  EXPECT_GT(rejected, 100);  // the variants do reach the rejection paths
}

}  // namespace
}  // namespace dvemig
