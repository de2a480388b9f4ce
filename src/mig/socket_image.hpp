// Socket state images: extraction on the source, restoration on the destination
// (Section V-C), with section-granular serialization so the incremental collective
// strategy can ship only what changed.
//
// Images hold the stack's own structures (stack::TcpVars, TcpTxSegment,
// TcpRxSegment, UdpDatagram); the wire field lists, with the kernel-structure
// pads, live here. A TCP image is split into three sections:
//   static  — identity + the bulk of the kernel structure (struct tcp_sock pad):
//             written once, practically never changes afterwards;
//   dynamic — sequence numbers, windows, RTT/congestion state, timestamps;
//   queues  — write / receive / out-of-order queue contents (real payload bytes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/serial.hpp"
#include "src/common/types.hpp"
#include "src/mig/cost_model.hpp"
#include "src/stack/tcp_socket.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::mig {

/// What the destination must match to capture packets for a migrating socket
/// (Section III-B: remote IP, remote port and local port).
struct CaptureSpec {
  net::IpProto proto{net::IpProto::tcp};
  bool match_remote{true};  // false for wildcard server sockets (UDP bind, listeners)
  net::Endpoint remote{};
  net::Port local_port{0};

  template <class Io, class Self>
  static void fields(Io& io, Self& s) {
    io.u8(s.proto);
    io.boolean(s.match_remote);
    io.rec(s.remote);
    io.u16(s.local_port);
  }
  void serialize(BinaryWriter& w) const { put(w, *this); }
  static CaptureSpec deserialize(BinaryReader& r) { return get<CaptureSpec>(r); }
  bool matches(const net::Packet& p) const;

  // --- hash-index keys (DESIGN.md §12) -------------------------------------
  // The capture index is two-tier: an exact tier keyed by the full
  // (remote addr, remote port, local port) match tuple and a wildcard tier
  // keyed by local port alone. Packing the tuples into integers keeps the
  // per-packet lookup a single hash probe with no tuple hashing.

  /// (remote addr, remote port, local port) packed; exact-tier key.
  /// Only meaningful when match_remote is true.
  std::uint64_t exact_key() const {
    return pack_exact(remote.addr.value, remote.port, local_port);
  }
  /// Exact-tier key of the tuple a packet would have to match.
  static std::uint64_t exact_key_for(const net::Packet& p) {
    return pack_exact(p.src.value, p.sport(), p.dport());
  }
  /// (remote addr, remote port) packed; keys a wildcard spec's per-peer
  /// dedup map.
  static std::uint64_t peer_key_for(const net::Packet& p) {
    return static_cast<std::uint64_t>(p.src.value) << 16 | p.sport();
  }

 private:
  static std::uint64_t pack_exact(std::uint32_t raddr, net::Port rport,
                                  net::Port lport) {
    return static_cast<std::uint64_t>(raddr) << 32 |
           static_cast<std::uint64_t>(rport) << 16 | lport;
  }
};

enum class SectionFlags : std::uint8_t {
  none = 0,
  stat = 1,      // static section
  dyn = 2,       // dynamic section
  queues = 4,
};
constexpr std::uint8_t operator&(SectionFlags a, SectionFlags b) {
  return static_cast<std::uint8_t>(a) & static_cast<std::uint8_t>(b);
}
constexpr SectionFlags operator|(SectionFlags a, SectionFlags b) {
  return static_cast<SectionFlags>(static_cast<std::uint8_t>(a) |
                                   static_cast<std::uint8_t>(b));
}

/// Stands in for the rest of a kernel structure (a field-for-field dump of
/// struct tcp_sock / udp_sock / sk_buff): the size is what is measured.
inline constexpr std::uint8_t kStructPadFill = 0xA5;

/// A TCP socket's image: the stack's own connection variables plus identity,
/// listener data and copies of the queues. The static section carries the
/// identity and the initial sequence numbers, the dynamic section the rest of
/// stack::TcpVars.
struct TcpImage : stack::TcpVars {
  std::uint64_t src_sock_key{0};  // sock_id on the source (delta-tracking key)
  Fd fd{-1};                      // process fd; -1 for un-accepted listener children
  net::Endpoint local{};
  net::Endpoint remote{};
  bool listening{false};
  std::uint32_t backlog_limit{0};

  std::vector<stack::TcpTxSegment> write_queue;
  std::vector<stack::TcpRxSegment> receive_queue;
  std::vector<stack::TcpRxSegment> ooo_queue;  // ascending seq

  // Listener children (fully established, waiting in the accept queue) ride along
  // with the listening socket's image as nested full images.
  std::vector<TcpImage> accept_children;

  // One field list per section (src/common/serial.hpp).
  template <class Io, class Self>
  static void static_fields(Io& io, Self& s) {
    io.u64(s.src_sock_key);
    io.i32(s.fd);
    io.rec(s.local);
    io.rec(s.remote);
    io.boolean(s.listening);
    io.u32(s.backlog_limit);
    io.u32(s.iss);
    io.u32(s.irs);
    io.u32(s.rcv_wnd_max);
    io.pad(kTcpSockStructPad, kStructPadFill);
    io.seq(s.accept_children, [](Io& cio, auto& child) {
      static_fields(cio, child);
      dynamic_fields(cio, child);
      queue_fields(cio, child);
    });
  }

  template <class Io, class Self>
  static void dynamic_fields(Io& io, Self& s) {
    io.u8(s.state);
    io.u32(s.snd_una);
    io.u32(s.snd_nxt);
    io.u32(s.snd_wnd);
    io.u32(s.rcv_nxt);
    io.i64(s.srtt_ns);
    io.i64(s.rttvar_ns);
    io.i64(s.rto_ns);
    io.u32(s.cwnd);
    io.u32(s.ssthresh);
    io.u32(s.ts_recent);
    io.i64(s.ts_offset);
    io.boolean(s.fin_queued);
    io.u32(s.fin_seq);
    io.boolean(s.peer_fin_seen);
  }

  template <class Io, class Self>
  static void queue_fields(Io& io, Self& s) {
    io.seq(s.write_queue, [](Io& qio, auto& seg) {
      qio.u32(seg.seq);
      qio.u8(seg.flags);
      qio.u32(seg.retrans);
      qio.i64(seg.sent_at_local_ns);
      qio.u32(seg.sent_tsval);
      qio.blob(seg.data);
      qio.pad(kSkbStructPad, kStructPadFill);
    });
    const auto rx_segment = [](Io& qio, auto& seg) {
      qio.u32(seg.seq);
      qio.boolean(seg.fin);
      qio.blob(seg.data);
      qio.pad(kSkbStructPad, kStructPadFill);
    };
    io.seq(s.receive_queue, rx_segment);
    io.seq(s.ooo_queue, rx_segment);
  }

  /// A socket record's sections in wire order: `section(bit, fields)` once
  /// each, where `fields(io, img)` runs that section's field list.
  template <class Section>
  static constexpr void sections(const Section& section) {
    section(SectionFlags::stat, [](auto& io, auto& s) { static_fields(io, s); });
    section(SectionFlags::dyn, [](auto& io, auto& s) { dynamic_fields(io, s); });
    section(SectionFlags::queues, [](auto& io, auto& s) { queue_fields(io, s); });
  }
};

struct UdpImage {
  std::uint64_t src_sock_key{0};
  Fd fd{-1};
  net::Endpoint local{};
  net::Endpoint remote{};
  bool bound{false};
  bool connected{false};
  std::vector<stack::UdpDatagram> receive_queue;

  template <class Io, class Self>
  static void static_fields(Io& io, Self& s) {
    io.u64(s.src_sock_key);
    io.i32(s.fd);
    io.rec(s.local);
    io.rec(s.remote);
    io.boolean(s.bound);
    io.boolean(s.connected);
    io.pad(kUdpSockStructPad, kStructPadFill);
  }

  template <class Io, class Self>
  static void queue_fields(Io& io, Self& s) {
    io.seq(s.receive_queue, [](Io& qio, auto& dgram) {
      qio.rec(dgram.from);
      qio.blob(dgram.data);
      qio.pad(kSkbStructPad, kStructPadFill);
    });
  }

  /// As TcpImage::sections; UDP has no dynamic section.
  template <class Section>
  static constexpr void sections(const Section& section) {
    section(SectionFlags::stat, [](auto& io, auto& s) { static_fields(io, s); });
    section(SectionFlags::queues, [](auto& io, auto& s) { queue_fields(io, s); });
  }
};

/// The union of an image type's SectionFlags: what a complete record carries.
template <class Image>
inline constexpr SectionFlags kAllSections = [] {
  SectionFlags all = SectionFlags::none;
  Image::sections([&](SectionFlags bit, const auto&) { all = all | bit; });
  return all;
}();

// ---------------------------------------------------------------- extraction

/// Snapshot a TCP socket (including nested accept-queue children for listeners).
/// Precondition (Section V-C1): backlog and prequeue are empty and the socket is
/// not user-locked — guaranteed by signal-based checkpointing.
TcpImage extract_tcp(const stack::TcpSocket& sock, Fd fd);

UdpImage extract_udp(const stack::UdpSocket& sock, Fd fd);

/// Capture spec(s) needed before disabling this socket on the source.
std::vector<CaptureSpec> capture_specs_for_tcp(const stack::TcpSocket& sock);
CaptureSpec capture_spec_for_udp(const stack::UdpSocket& sock);

// ---------------------------------------------------------------- restoration

struct RestoreContext {
  stack::NetStack* stack{nullptr};          // destination stack
  net::Ipv4Addr src_node_local_addr{};      // rewritten to dst_node_local_addr
  net::Ipv4Addr dst_node_local_addr{};
  std::int64_t src_jiffies_at_ckpt{0};      // for the timestamp adjustment
  std::int64_t src_local_now_at_ckpt_ns{0};
  bool adjust_timestamps{true};             // ablation switch
};

/// Rebuild a TCP socket on the destination stack: allocate, fill the control
/// block (adjusting jiffies-domain timestamps by the source/destination delta),
/// rewrite an in-cluster local address, rehash into ehash/bhash and restart the
/// retransmission timer. The caller reinjects captured packets afterwards.
stack::TcpSocket::Ptr restore_tcp(const TcpImage& img, const RestoreContext& ctx);

std::shared_ptr<stack::UdpSocket> restore_udp(const UdpImage& img,
                                              const RestoreContext& ctx);

}  // namespace dvemig::mig
